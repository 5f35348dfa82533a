"""Acceptance suite: one test per release criterion, all exact (no tolerances).

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``).  Randomized cases use fixed seeds so runs are reproducible.
"""

import pathlib
import random
from contextlib import contextmanager

import modclass
from modclass import (
    ChainMap,
    Cochain,
    ComplexFiber,
    Matrix,
    RepUpToWeakHomotopy,
    Trivialization,
    berezinian,
    characteristic_function,
    coboundary,
    cyclic_groupoid,
    invertible_replacement,
    is_cocycle_1,
    modular_class,
    parse,
    verify_chain_map,
    verify_line_rep,
    verify_ruth,
)
from oracle import homotopy_between, regular_factorization_check, scan_coboundary, tensor
from randgen import (
    conjugated_complex,
    pair2_fixture,
    rand_cochain,
    rand_complex,
    rand_groupoid,
    rand_homotopy,
    rand_invertible_endo,
    rand_line_rep,
    rand_potential,
    rand_ruth,
    rand_trivialization,
    rand_vector_rep,
    run_modclass_cli,
    s3_action_fixture,
    scalar_twist,
    standard_fixtures,
    z2_fixture,
    z3_fixture,
)

FIXTURES = pathlib.Path(modclass.__file__).parent / "fixtures"
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_berezinian_homotopy_invariance():
    with criterion(1, "Berezinian homotopy invariance on 200 randomized cases"):
        rng = random.Random(101)
        cases = 0
        while cases < 200:
            c = rand_complex(rng)
            if c.total_dim() == 0:
                continue
            f = rand_invertible_endo(rng, c)
            for _ in range(25):
                twisted = f + rand_homotopy(rng, c, c).boundary_conjugate()
                if twisted.is_invertible():
                    break
            else:
                continue
            assert berezinian(f) == berezinian(twisted)
            cases += 1
        assert cases == 200


def test_criterion_2_invertible_replacement():
    with criterion(2, "invertible replacement certified on 200 homotopy equivalences"):
        rng = random.Random(102)
        cases = 0
        while cases < 200:
            c = rand_complex(rng)
            if c.total_dim() == 0:
                continue
            if cases % 2 == 0:
                target, base = c, rand_invertible_endo(rng, c)
            else:
                other, q = conjugated_complex(rng, c)
                target, base = other, q.compose(rand_invertible_endo(rng, c))
            f = base + rand_homotopy(rng, c, target).boundary_conjugate()
            g = invertible_replacement(f)
            assert g.is_invertible()
            assert verify_chain_map(g).ok
            homotopy = homotopy_between(g, f)
            assert homotopy is not None
            assert homotopy.boundary_conjugate() == g - f
            cases += 1
        assert cases == 200


def _acyclic_zero_rep(fx):
    fiber = ComplexFiber(0, 1, {0: 1, 1: 1}, {0: Matrix([[1]])})
    gpd = fx.gpd
    units = {gpd.unit(x) for x in gpd.objects}
    action = {
        a: ChainMap.identity(fiber)
        if a in units
        else ChainMap.zero(fiber, fiber)
        for a in gpd.arrow_ids()
    }
    return RepUpToWeakHomotopy(gpd, {x: fiber for x in gpd.objects}, action)


def test_criterion_3_induced_representation_strictness():
    with criterion(3, "induced Berezinian action strictly functorial on 56 reps"):
        rng = random.Random(103)
        fixtures = [
            (z2_fixture(), 15),
            (z3_fixture(), 15),
            (pair2_fixture(), 15),
            (s3_action_fixture(), 7),
        ]
        total = 0
        for fx, count in fixtures:
            reps = [rand_ruth(rng, fx) for _ in range(count)] + [_acyclic_zero_rep(fx)]
            for rep in reps:
                line = verify_ruth(rep).berezinian_rep(rand_trivialization(rng, fx.gpd))
                assert verify_line_rep(line).ok
                total += 1
        assert total >= 50
        # the constructions really satisfy the weak laws
        assert verify_ruth(rand_ruth(rng, z2_fixture())).ok
        assert verify_ruth(_acyclic_zero_rep(pair2_fixture())).ok


def test_criterion_4_characteristic_cocycle_and_section_independence():
    with criterion(4, "characteristic cocycles and exact coboundary shifts, 100 reps"):
        rng = random.Random(104)
        fixtures = standard_fixtures()
        for k in range(100):
            fx = fixtures[k % len(fixtures)]
            rep = rand_line_rep(rng, fx)
            sigma = rand_trivialization(rng, fx.gpd)
            phi = characteristic_function(rep, sigma)
            assert is_cocycle_1(fx.gpd, phi)
            f = rand_potential(rng, fx.gpd)
            rescaled = Trivialization({x: f[x] * sigma(x) for x in fx.gpd.objects})
            shifted = characteristic_function(rep, rescaled)
            assert shifted.values == (phi * coboundary(fx.gpd, Cochain(0, f))).values


def test_criterion_5_coboundary_squares_to_one():
    with criterion(5, "delta of delta is identically 1 on 30 random groupoids"):
        rng = random.Random(105)
        for _ in range(30):
            gpd = rand_groupoid(rng, max_arrows=20)
            assert len(gpd.arrows) <= 20
            f0 = rand_cochain(rng, gpd, 0)
            assert scan_coboundary(gpd, coboundary(gpd, f0)).is_one()
            f1 = rand_cochain(rng, gpd, 1)
            assert scan_coboundary(gpd, scan_coboundary(gpd, f1)).is_one()


def test_criterion_6_tensor_multiplicativity():
    with criterion(6, "tensor characteristic cocycles multiply on 100 pairs"):
        rng = random.Random(106)
        fixtures = standard_fixtures()
        for k in range(100):
            fx = fixtures[k % len(fixtures)]
            r1, r2 = rand_line_rep(rng, fx), rand_line_rep(rng, fx)
            lhs = characteristic_function(tensor(r1, r2))
            rhs = characteristic_function(r1) * characteristic_function(r2)
            assert lhs.values == rhs.values


def test_criterion_7_regular_factorization():
    with criterion(7, "cohomology factorization of the modular cocycle on 52 reps"):
        rng = random.Random(107)
        fixtures = [
            (z2_fixture(), 17),
            (z3_fixture(), 17),
            (pair2_fixture(), 16),
            (s3_action_fixture(), 2),
        ]
        total = 0
        for fx, count in fixtures:
            for _ in range(count):
                rep = rand_ruth(rng, fx)
                assert regular_factorization_check(
                    rep, rand_trivialization(rng, fx.gpd)
                )
                total += 1
        assert total >= 50


def test_criterion_8_known_classes():
    with criterion(8, "known classes: odd sign, pair groupoid, acyclic fixture"):
        # odd-line sign action of the two-element group: nontrivial
        fiber = ComplexFiber(1, 1, {1: 1}, {})
        z2 = cyclic_groupoid(2)
        unit, tau = "e:*>*", "r1:*>*"
        odd_sign = RepUpToWeakHomotopy(
            z2,
            {"*": fiber},
            {
                unit: ChainMap.identity(fiber),
                tau: ChainMap(fiber, fiber, {1: Matrix([[-1]])}),
            },
        )
        report = modular_class(odd_sign)
        assert not report.is_coboundary
        assert report.cocycle((tau,)) == -1

        # every representation over the pair groupoid: trivial with a witness
        rng = random.Random(108)
        fx = pair2_fixture()
        reps = [rand_ruth(rng, fx) for _ in range(12)]
        reps.append(_acyclic_zero_rep(fx))
        for rep in reps:
            result = modular_class(rep, rand_trivialization(rng, fx.gpd))
            assert result.is_coboundary
            delta = coboundary(fx.gpd, result.witness)
            assert delta.values == result.cocycle.values
        for _ in range(4):
            strict = rand_vector_rep(rng, fx)
            result = modular_class(strict, rand_trivialization(rng, fx.gpd))
            assert result.is_coboundary

        # shipped acyclic two-term document: Berezinian function identically 1
        doc = parse(FIXTURES / "acyclic_two_term.json")
        line = verify_ruth(doc.rep).berezinian_rep()
        assert characteristic_function(line).is_one()


def test_criterion_9_unimodularity_witness():
    with criterion(9, "witnesses rescale sections to invariant ones on 16 reps"):
        rng = random.Random(109)
        fixtures = standard_fixtures()[:3]
        for k in range(16):
            fx = fixtures[k % len(fixtures)]
            gpd = fx.gpd
            base = rand_ruth(rng, fx, unimodular=True)
            f = rand_potential(rng, gpd)
            twist = {a: f[gpd.src(a)] / f[gpd.tgt(a)] for a in gpd.arrow_ids()}
            rep = scalar_twist(base, twist)
            sigma = rand_trivialization(rng, gpd)
            report = modular_class(rep, sigma)
            assert report.is_coboundary
            invariant_sigma = sigma.rescale(report.witness)
            again = modular_class(rep, invariant_sigma)
            assert again.cocycle.is_one()


def test_criterion_10_cli_goldens_and_exit_codes():
    with criterion(10, "CLI reports byte-stable and exit codes respected"):
        for name in ["z2_sign_odd", "pair2", "s3_action", "acyclic_two_term"]:
            first = run_modclass_cli(
                "modular-class", f"{name}.json", "--format", "json", cwd=FIXTURES
            )
            second = run_modclass_cli(
                "modular-class", f"{name}.json", "--format", "json", cwd=FIXTURES
            )
            assert first.returncode == 0 and second.returncode == 0
            assert first.stdout == second.stdout
            assert first.stdout == (GOLDEN / f"{name}.modular-class.json").read_text()
        assert run_modclass_cli("validate", "pair2.json", cwd=FIXTURES).returncode == 0
        assert run_modclass_cli("validate", "broken_assoc.json", cwd=DATA).returncode == 1
        assert run_modclass_cli("validate", "malformed.json", cwd=DATA).returncode == 2
