"""Invariance of the modular class under changes that carry no information.

The modular class of a representation up to weak homotopy, and the
obstruction list that certifies a nontrivial one, must survive:

- renaming every object and arrow, with their order kept: the spanning
  forest visits the same arrows, so arrows map to arrows and defects stay;
- rescaling the chosen sections by a degree-0 cochain f: the cocycle
  is divided by exactly the coboundary of f, so the class and its
  obstructions stay;
- a change of basis in each fiber: conjugating each action by the chain
  isomorphisms q_x multiplies the Berezinian cocycle by the coboundary of
  x -> Ber(q_x), which leaves every defect of the spanning-forest potential
  unchanged;
- the choices a decomposition makes: each arrow's Berezinian, read off
  decompositions built after relabelling every degree's coordinates, is
  the same rational, so the cocycle, and with it the class and its
  obstructions, does not depend on those choices;
- twisting every non-unit action t to t + dH + Hd by a homotopy H: the
  action is the same up to homotopy, so the command line prints the
  same modular-class report, text and JSON, byte for byte, and
  homotopy-check finds every pair it found before.
"""

import json
import random

import pytest

from modclass import (
    ChainMap,
    Cochain,
    FiniteGroupoid,
    InputDocument,
    RepUpToWeakHomotopy,
    Trivialization,
    berezinian_class,
    cli,
    coboundary,
    decompose,
    harmonic_blocks,
    modular_class,
    serialize,
)
from modclass.complexes import _class_berezinian
from oracle import det_and_inverse, permuted_decomposition
from randgen import (
    conjugated_complex,
    rand_homotopy,
    rand_potential,
    rand_ruth,
    rand_trivialization,
    standard_fixtures,
)

SEEDS = range(200)


def ruth_case(seed):
    rng = random.Random(seed)
    z2, z3, pair2, s3_action = standard_fixtures()
    # the S3 action groupoid has 108 composable pairs; visit it now and then
    fx = s3_action if seed % 25 == 0 else (z2, z3, pair2)[seed % 3]
    rep = rand_ruth(rng, fx, unimodular=seed % 4 == 1)
    return rng, rep, rand_trivialization(rng, fx.gpd)


def outcome(report):
    return report.is_coboundary, report.obstructions


def renamed(rep, sigma):
    """``rep`` and ``sigma`` with object x named "o:x" and arrow a named "a:a"."""
    gpd = rep.groupoid
    obj = {x: f"o:{x}" for x in gpd.objects}
    arr = {a: f"a:{a}" for a in gpd.arrow_ids()}
    other = FiniteGroupoid(
        [obj[x] for x in gpd.objects],
        [(arr[a], obj[s], obj[t]) for a, s, t in gpd.arrows],
        {obj[x]: arr[u] for x, u in gpd.identity.items()},
        {arr[a]: arr[b] for a, b in gpd.inverse.items()},
        {(arr[g], arr[h]): arr[gh] for (g, h), gh in gpd.composition.items()},
    )
    fibers = {obj[x]: c for x, c in rep.complexes.items()}
    action = {arr[a]: t for a, t in rep.action.items()}
    scales = Trivialization({obj[x]: sigma(x) for x in gpd.objects})
    return RepUpToWeakHomotopy(other, fibers, action), scales, arr


def rebased(rng, rep):
    """``rep`` with each fiber replaced by a random change-of-basis copy."""
    gpd = rep.groupoid
    into, back = {}, {}
    for x in gpd.objects:
        other, q = conjugated_complex(rng, rep.complexes[x])
        into[x] = q
        back[x] = ChainMap(
            other,
            q.source,
            {i: det_and_inverse(q.component(i))[1] for i in other.degrees()},
        )
    action = {
        a: into[gpd.tgt(a)].compose(rep(a)).compose(back[gpd.src(a)])
        for a in gpd.arrow_ids()
    }
    return RepUpToWeakHomotopy(gpd, {x: q.target for x, q in into.items()}, action)


@pytest.mark.parametrize("seed", SEEDS)
def test_class_survives_renaming(seed):
    _, rep, sigma = ruth_case(seed)
    trivial, obstructions = outcome(modular_class(rep, sigma))
    other, scales, arr = renamed(rep, sigma)
    assert outcome(modular_class(other, scales)) == (
        trivial,
        [(arr[a], defect) for a, defect in obstructions],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_rescaled_sections_shift_the_cocycle_by_a_coboundary(seed):
    rng, rep, sigma = ruth_case(seed)
    gpd = rep.groupoid
    f = Cochain(0, rand_potential(rng, gpd))
    before, after = modular_class(rep, sigma), modular_class(rep, sigma.rescale(f))
    assert after.cocycle == before.cocycle / coboundary(gpd, f)
    assert outcome(after) == outcome(before)


@pytest.mark.parametrize("seed", SEEDS)
def test_class_survives_change_of_basis(seed):
    rng, rep, sigma = ruth_case(seed)
    expected = outcome(modular_class(rep, sigma))
    assert outcome(modular_class(rebased(rng, rep), sigma)) == expected


def permuted_decompositions(rng, rep):
    """Each fiber decomposed after a random relabelling of every degree's coordinates."""
    decs = {}
    for x, c in rep.complexes.items():
        perms = {i: rng.sample(range(c.dim(i)), c.dim(i)) for i in c.degrees()}
        decs[x] = permuted_decomposition(c, perms)
    return decs


@pytest.mark.parametrize("seed", SEEDS)
def test_berezinian_survives_the_decomposition_choice(seed):
    rng, rep, sigma = ruth_case(seed)
    gpd, decs = rep.groupoid, permuted_decompositions(rng, rep)
    for a in gpd.arrow_ids():
        x, y = gpd.src(a), gpd.tgt(a)
        scales = (sigma(x), sigma(y))
        ends = decs[x], decs[y]
        permuted = _class_berezinian(harmonic_blocks(rep(a), *ends), *ends, *scales)
        assert permuted == berezinian_class(rep(a), *scales), a


def test_permuted_decompositions_make_other_choices():
    changed = 0
    for seed in SEEDS:
        rng, rep, _ = ruth_case(seed)
        for x, dec in permuted_decompositions(rng, rep).items():
            c = rep.complexes[x]
            canonical = decompose(c)
            changed += any(dec.basis_at(i) != canonical.basis_at(i) for i in c.degrees())
    assert changed > len(SEEDS) // 4


def test_cases_cover_both_outcomes():
    trivial = {outcome(modular_class(rep, sigma))[0] for _, rep, sigma in map(ruth_case, SEEDS)}
    assert trivial == {True, False}


def homotopy_twisted(rng, rep):
    """``rep`` with each non-unit action t replaced by t + dH + Hd for a random H."""
    gpd = rep.groupoid
    units = {gpd.unit(x) for x in gpd.objects}
    action = {}
    for a in gpd.arrow_ids():
        t = rep(a)
        if a not in units:  # a twisted unit would break the unit law
            t = t + rand_homotopy(rng, t.source, t.target).boundary_conjugate()
        action[a] = t
    return RepUpToWeakHomotopy(gpd, rep.complexes, action)


def cli_outputs(rep, sigma, path, capsys) -> dict:
    """Exit code and standard output of each command on the serialized ``rep``."""
    path.write_text(json.dumps(serialize(InputDocument(rep.groupoid, rep, sigma, None))))
    outputs = {}
    for command in ("modular-class", "homotopy-check"):
        for fmt in ("text", "json"):
            code = cli.main([command, str(path), "--format", fmt])
            outputs[command, fmt] = code, capsys.readouterr().out
    return outputs


def test_the_command_line_survives_homotopy_twisting(tmp_path, capsys):
    classes, twisted = set(), 0
    for seed in range(40):
        rng = random.Random(seed)
        fx = standard_fixtures()[seed % 4]
        rep = rand_ruth(rng, fx, unimodular=seed % 3 == 1)
        sigma = rand_trivialization(rng, fx.gpd)
        path = tmp_path / "ruth.json"
        before = cli_outputs(rep, sigma, path, capsys)
        document = path.read_text()
        after = cli_outputs(homotopy_twisted(rng, rep), sigma, path, capsys)
        twisted += path.read_text() != document
        assert after == before, seed
        code, out = before["homotopy-check", "json"]
        pairs = json.loads(out)["pairs"]
        assert code == 0 and pairs and all(p["certificate"] == "found" for p in pairs), seed
        classes.add(json.loads(before["modular-class", "json"][1])["class"])
    assert classes == {"trivial", "nontrivial"}
    assert twisted > 20
