import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modclass import (
    Cochain,
    FiniteGroupoid,
    GroupTable,
    Matrix,
    NotACocycle,
    coboundary,
    coboundary_solve_1,
    connected_groupoid,
    cyclic_groupoid,
    is_cocycle_1,
    pair_groupoid,
    validate,
)
from modclass import groupoid as groupoid_module
import oracle
from oracle import class_equal, scan_composable_tuples, scan_coboundary
from randgen import nonassociative_loop, rand_groupoid, rand_potential


Z2 = cyclic_groupoid(2)
TAU = "r1:*>*"
E = "e:*>*"
PAIR2 = pair_groupoid(["x", "y"])
G_XY = "e:x>y"  # the arrow x -> y


def broken_z2() -> FiniteGroupoid:
    # same tables as Z2 except t*t = t, which breaks the inverse law
    return FiniteGroupoid(
        objects=["*"],
        arrows=[("e", "*", "*"), ("t", "*", "*")],
        identity={"*": "e"},
        inverse={"e": "e", "t": "t"},
        composition={("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "t"},
    )


def delta0(gpd, f: dict) -> Cochain:
    return coboundary(gpd, Cochain(0, dict(f)))


class TestValidate:
    def test_z2(self):
        assert validate(Z2).ok

    def test_pair2(self):
        assert validate(PAIR2).ok

    def test_broken_inverse(self):
        report = validate(broken_z2())
        assert not report.ok
        assert any("inverse law" in p for p in report.problems)

    def test_random_builders_are_valid(self):
        rng = random.Random(2)
        for _ in range(6):
            assert validate(rand_groupoid(rng)).ok


class CountedRow(dict):
    """A row of the composition table that counts its subscriptions in ``work``."""

    def __init__(self, items, work):
        super().__init__(items)
        self.work = work

    def __getitem__(self, key):
        self.work["lookups"] += 1
        return super().__getitem__(key)


def counted_rows(gpd: FiniteGroupoid, work: dict) -> None:
    # the table and each of its rows count every subscription
    gpd._rows = CountedRow({g: CountedRow(row, work) for g, row in gpd._rows.items()}, work)


@pytest.fixture
def validate_work(monkeypatch):
    """``compose`` and ``composable_pairs`` calls, and the scans ``validate`` runs."""
    work = {"compose": 0, "composable_pairs": 0, "scans": [], "lookups": 0}
    compose, composable_pairs = FiniteGroupoid.compose, FiniteGroupoid.composable_pairs

    def counted_compose(self, g, h):
        work["compose"] += 1
        return compose(self, g, h)

    def counted_pairs(self):
        work["composable_pairs"] += 1
        return composable_pairs(self)

    monkeypatch.setattr(FiniteGroupoid, "compose", counted_compose)
    monkeypatch.setattr(FiniteGroupoid, "composable_pairs", counted_pairs)
    for name in ("_scan_closure", "_scan_associativity"):
        original = getattr(groupoid_module, name)

        def spy(*args, _original=original, _name=name):
            work["scans"].append(_name)
            return _original(*args)

        monkeypatch.setattr(groupoid_module, name, spy)
    return work


def test_validate_lookup_counts(validate_work):
    # A lawful table is certified through its isotropy model: no pair or
    # triple scan, and the lookups grow with the arrows and the isotropy
    # group's table, not with the pairs or the triples.  Every lookup is a
    # subscription of the stored rows, and ``compose`` is never called.
    n, m = 4, 6
    gpd = connected_groupoid([f"o{i}" for i in range(n)], GroupTable.symmetric_3())
    counted_rows(gpd, validate_work)
    arrows, pairs = n * n * m, n**3 * m**2
    assert validate(gpd).ok
    assert validate_work["scans"] == []
    assert validate_work["compose"] == 0
    assert 0 < validate_work["lookups"] <= 12 * arrows + 4 * m**3 < pairs
    assert validate_work["composable_pairs"] <= 2


def test_validate_scans_the_triples_of_a_nonassociative_loop(validate_work):
    # the loop has a model and a table of composable pairs, so closure is
    # certified; its isotropy table fails, so the triples are scanned
    report = validate(nonassociative_loop())
    assert validate_work["scans"] == ["_scan_associativity"]
    assert report.problems
    assert all(p.startswith("associativity fails on ") for p in report.problems)
    assert "associativity fails on ('1', '2', '2')" in report.problems


class TestComposableTuples:
    # the tuples the higher coboundary runs over, and the pairs the library lists
    def test_pair2_arrows(self):
        assert len(scan_composable_tuples(PAIR2, 1)) == 4

    def test_z2_pairs(self):
        # one object: every pair of the 2 arrows is composable
        assert len(Z2.composable_pairs()) == len(scan_composable_tuples(Z2, 2)) == 4

    def test_pair2_pairs_brute_force(self):
        ids = PAIR2.arrow_ids()
        expected = [
            (g, h) for g in ids for h in ids if PAIR2.src(g) == PAIR2.tgt(h)
        ]
        assert len(expected) == 8
        assert PAIR2.composable_pairs() == expected
        assert scan_composable_tuples(PAIR2, 2) == expected

    def test_degree_zero_gives_objects(self):
        assert scan_composable_tuples(PAIR2, 0) == ["x", "y"]


def test_cochain_constant_rejects_floats():
    with pytest.raises(TypeError, match="exact rationals"):
        Cochain.constant(1, [(E,)], 0.1)


def test_a_cochain_without_a_value_on_an_arrow_is_named():
    partial = Cochain(1, {(E,): 1})
    whole = Cochain.constant(1, [(E,), (TAU,)])
    calls = [
        lambda: coboundary_solve_1(Z2, partial),
        lambda: is_cocycle_1(Z2, partial),
        lambda: class_equal(Z2, partial, whole),
        lambda: class_equal(Z2, whole, partial),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^cochain has no value on arrow 'r1:\*>\*'$") as exc:
            call()
        assert type(exc.value) is ValueError
    # the first arrow without a value, in arrow order
    gpd = connected_groupoid(["x", "y"], GroupTable.cyclic(2))
    given = {(a,): 1 for a in gpd.arrow_ids()[::3]}
    with pytest.raises(ValueError, match=r"no value on arrow 'r1:x>x'$"):
        is_cocycle_1(gpd, Cochain(1, given))


def test_cochain_values_are_fractions_and_keep_the_checks():
    phi = Cochain(1, {(E,): 1, (TAU,): Fraction(-2, 4)})
    assert [type(v) for v in phi.values.values()] == [Fraction, Fraction]
    assert phi.values == {(E,): 1, (TAU,): Fraction(-1, 2)}
    with pytest.raises(ValueError, match="is zero"):
        Cochain(1, {(E,): Fraction(0)})
    with pytest.raises(TypeError, match="exact rationals"):
        Cochain(1, {(E,): 0.5})


class TestCoboundary:
    def test_constant_potential(self):
        assert delta0(PAIR2, {"x": 5, "y": 5}).is_one()

    def test_pair2_quotient(self):
        d = delta0(PAIR2, {"x": 2, "y": 3})
        assert d(G_XY) == Fraction(2, 3)

    def test_sign_cocycle_killed(self):
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
        assert scan_coboundary(Z2, phi).is_one()

    def test_degree_two_values(self):
        # delta phi (g, h) = phi(h) phi(g) / phi(gh), checked on one pair
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(2)})
        d = scan_coboundary(Z2, phi)
        assert d((TAU, TAU)) == Fraction(2) * Fraction(2) / Fraction(1)
        # the library's coboundary is the degree-0 one alone
        with pytest.raises(ValueError, match="expected a degree-0 cochain"):
            coboundary(Z2, phi)


class TestIsCocycle:
    def test_functorial_scalars(self):
        phi = Cochain(
            1,
            {
                ("e:x>x",): Fraction(1),
                ("e:y>y",): Fraction(1),
                ("e:x>y",): Fraction(2),
                ("e:y>x",): Fraction(1, 2),
            },
        )
        assert is_cocycle_1(PAIR2, phi)

    def test_sign(self):
        assert is_cocycle_1(Z2, Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)}))

    def test_non_involutive_scalar(self):
        assert not is_cocycle_1(Z2, Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(2)}))


class TestUnitCheck:
    """(U) asks that ``phi(e_b)`` be the identity and every loop's value have its shape."""

    IDEMPOTENT = Matrix([[1, 0], [0, 0]])

    def test_a_loop_of_another_shape_is_not_certified(self):
        # broken_z2 has an isotropy model, and beside a 1x1 unit its
        # idempotent loop passes (A) and (G); the pair (e, t) cannot
        # even be multiplied
        values = {"e": Matrix.identity(1), "t": self.IDEMPOTENT}
        assert not groupoid_module._is_functorial(broken_z2(), values.__getitem__)
        with pytest.raises(ValueError, match="cannot multiply"):
            groupoid_module._failing_pairs(broken_z2(), values.__getitem__)

    def test_pairs_beside_the_unit_are_looked_up(self):
        # Z/2 with its identity table pointing at t: the model still
        # exists, with t as the tree arrow, and e is an idempotent loop
        # beside it; t * e = t, not e, so the pair (t, e) fails
        gpd = FiniteGroupoid(
            objects=["*"],
            arrows=[("e", "*", "*"), ("t", "*", "*")],
            identity={"*": "t"},
            inverse={"e": "e", "t": "t"},
            composition={("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
        )
        values = {"e": self.IDEMPOTENT, "t": Matrix.identity(2)}
        assert groupoid_module._isotropy_model(gpd) is not None
        assert not groupoid_module._is_functorial(gpd, values.__getitem__)
        assert ("t", "e") in groupoid_module._failing_pairs(gpd, values.__getitem__)

    def test_a_loop_of_the_unit_shape_is_certified(self):
        values = {"e": Matrix.identity(2), "t": self.IDEMPOTENT}
        assert groupoid_module._is_functorial(broken_z2(), values.__getitem__)
        gpd = broken_z2()
        assert all(values[g] * values[h] == values[gpd.compose(g, h)] for g, h in gpd.composable_pairs())


class TestCoboundarySolve:
    def test_pair2_witness(self):
        phi = Cochain(
            1,
            {
                ("e:x>x",): Fraction(1),
                ("e:y>y",): Fraction(1),
                ("e:x>y",): Fraction(2),
                ("e:y>x",): Fraction(1, 2),
            },
        )
        report = coboundary_solve_1(PAIR2, phi)
        assert report.is_coboundary
        assert coboundary(PAIR2, report.witness).values == phi.values

    def test_sign_obstruction(self):
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
        report = coboundary_solve_1(Z2, phi)
        assert not report.is_coboundary
        assert report.obstructions == [(TAU, Fraction(-1))]

    def test_trivial_cocycle(self):
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(1)})
        report = coboundary_solve_1(Z2, phi)
        assert report.is_coboundary
        assert all(v == 1 for v in report.witness.values.values())

    def test_rejects_non_cocycle(self):
        with pytest.raises(ValueError):
            coboundary_solve_1(Z2, Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(2)}))

    def test_non_cocycle_raises_its_own_error(self):
        with pytest.raises(NotACocycle, match="not a cocycle"):
            coboundary_solve_1(Z2, Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(2)}))


class TestClassEqual:
    def test_coboundary_shift(self):
        rng = random.Random(4)
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
        f = rand_potential(rng, Z2)
        shifted = phi * delta0(Z2, f)
        assert class_equal(Z2, phi, shifted)

    def test_sign_vs_trivial(self):
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
        one = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(1)})
        assert not class_equal(Z2, phi, one)

    def test_reflexive(self):
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
        assert class_equal(Z2, phi, phi)

    def test_checks_each_input_once(self, monkeypatch):
        original, calls = oracle.is_cocycle_1, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "is_cocycle_1", counted)
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
        one = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(1)})
        assert not class_equal(Z2, phi, one)
        assert len(calls) == 2

    @pytest.mark.parametrize("side", [0, 1])
    def test_non_cocycle_on_either_side_raises(self, side):
        phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
        bad = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(2)})
        pair = (bad, phi) if side == 0 else (phi, bad)
        with pytest.raises(NotACocycle):
            class_equal(Z2, *pair)


_PIECES = [
    lambda: cyclic_groupoid(1),
    lambda: cyclic_groupoid(2),
    lambda: cyclic_groupoid(3),
    lambda: pair_groupoid(["a", "b"]),
    lambda: pair_groupoid(["a", "b", "c"]),
]

nonzero_rationals = st.builds(
    Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)
)


@st.composite
def groupoids(draw):
    from modclass import disjoint_union

    picks = draw(st.lists(st.integers(0, len(_PIECES) - 1), min_size=1, max_size=2))
    pieces = [_PIECES[i]() for i in picks]
    built = disjoint_union(*pieces) if len(pieces) > 1 else pieces[0]
    return built if len(built.arrows) <= 20 else pieces[0]


@st.composite
def groupoid_with_cochains(draw):
    gpd = draw(groupoids())
    f0 = Cochain(
        0, {x: draw(nonzero_rationals) for x in scan_composable_tuples(gpd, 0)}
    )
    f1 = Cochain(
        1, {k: draw(nonzero_rationals) for k in scan_composable_tuples(gpd, 1)}
    )
    return gpd, f0, f1


@settings(max_examples=25, deadline=None)
@given(groupoid_with_cochains())
def test_delta_squared_trivial(case):
    gpd, f0, f1 = case
    assert scan_coboundary(gpd, coboundary(gpd, f0)).is_one()
    assert scan_coboundary(gpd, scan_coboundary(gpd, f1)).is_one()


@settings(max_examples=25, deadline=None)
@given(groupoid_with_cochains())
def test_coboundaries_are_cocycles_and_solvable(case):
    gpd, f0, _ = case
    phi = coboundary(gpd, f0)
    assert is_cocycle_1(gpd, phi)
    report = coboundary_solve_1(gpd, phi)
    assert report.is_coboundary
    # witnesses may differ from f by a per-component scale, but not in effect
    assert coboundary(gpd, report.witness).values == phi.values


def test_one_object_classes_detected_on_isotropy():
    # over a group, the only coboundary is the constant 1
    for n in (1, 2, 3):
        gpd = cyclic_groupoid(n)
        rng = random.Random(n)
        values = {(a,): Fraction(1) for a in gpd.arrow_ids()}
        assert coboundary_solve_1(gpd, Cochain(1, values)).is_coboundary
    phi = Cochain(1, {(E,): Fraction(1), (TAU,): Fraction(-1)})
    assert not coboundary_solve_1(Z2, phi).is_coboundary
