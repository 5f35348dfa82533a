"""Invariance of the modular class under changes that carry no information.

The modular class of a representation up to weak homotopy, and the
obstruction list that certifies a nontrivial one, must survive:

- renaming every object and arrow, with their order kept: the spanning
  forest visits the same arrows, so arrows map to arrows and defects stay;
- a change of basis in each fiber: conjugating each action by the chain
  isomorphisms q_x multiplies the Berezinian cocycle by the coboundary of
  x -> Ber(q_x), which leaves every defect of the spanning-forest potential
  unchanged.
"""

import random

import pytest

from modclass import (
    ChainMap,
    FiniteGroupoid,
    RepUpToWeakHomotopy,
    Trivialization,
    det_and_inverse,
    modular_class_ruth,
)
from randgen import conjugated_complex, rand_ruth, rand_trivialization, standard_fixtures

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
    trivial, obstructions = outcome(modular_class_ruth(rep, sigma))
    other, scales, arr = renamed(rep, sigma)
    assert outcome(modular_class_ruth(other, scales)) == (
        trivial,
        [(arr[a], defect) for a, defect in obstructions],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_class_survives_change_of_basis(seed):
    rng, rep, sigma = ruth_case(seed)
    expected = outcome(modular_class_ruth(rep, sigma))
    assert outcome(modular_class_ruth(rebased(rng, rep), sigma)) == expected


def test_cases_cover_both_outcomes():
    trivial = {outcome(modular_class_ruth(rep, sigma))[0] for _, rep, sigma in map(ruth_case, SEEDS)}
    assert trivial == {True, False}
