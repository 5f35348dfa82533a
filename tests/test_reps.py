import random
import re
from fractions import Fraction

import pytest

from modclass import (
    ChainMap,
    ComplexFiber,
    Cochain,
    FiniteGroupoid,
    GradedDimensionMismatch,
    LineRep,
    Matrix,
    RepUpToWeakHomotopy,
    Trivialization,
    VectorRep,
    characteristic_function,
    coboundary,
    coboundary_solve_1,
    cyclic_groupoid,
    harmonic_blocks,
    is_cocycle_1,
    modular_class,
    pair_groupoid,
    strict_as_homotopy,
    verify_line_rep,
    verify_ruth,
    verify_vector_rep,
)
from modclass import complexes as complexes_module, groupoid as groupoid_module, reps as reps_module
from modclass.complexes import _class_berezinian
from oracle import (
    class_equal,
    homotopy_between,
    pair_scan_ruth,
    per_degree_cohomology_rep,
    permuted_decomposition,
    regular_factorization_check,
    tensor,
)
from randgen import (
    pair2_fixture,
    rand_homotopy,
    rand_line_rep,
    rand_potential,
    rand_ruth,
    rand_trivialization,
    rand_vector_rep,
    standard_fixtures,
    z2_fixture,
)

Z2 = cyclic_groupoid(2)
E, TAU = "e:*>*", "r1:*>*"
PAIR2 = pair_groupoid(["x", "y"])
P_IDS = PAIR2.arrow_ids()  # ["e:x>x", "e:x>y", "e:y>x", "e:y>y"]


def sign_rep() -> LineRep:
    return LineRep(Z2, {E: Fraction(1), TAU: Fraction(-1)})


def trivial_line_rep(gpd) -> LineRep:
    return LineRep(gpd, {a: Fraction(1) for a in gpd.arrow_ids()})


def pair2_line_rep(value: Fraction) -> LineRep:
    return LineRep(
        PAIR2,
        {
            "e:x>x": Fraction(1),
            "e:y>y": Fraction(1),
            "e:x>y": value,
            "e:y>x": 1 / value,
        },
    )


class TestVerifyReps:
    def test_trivial_rep(self):
        assert verify_line_rep(trivial_line_rep(Z2)).ok

    def test_sign_rep(self):
        assert verify_line_rep(sign_rep()).ok

    def test_non_involutive_scalar(self):
        report = verify_line_rep(LineRep(Z2, {E: Fraction(1), TAU: Fraction(2)}))
        assert not report.ok

    def test_swap_matrix_rep(self):
        swap = VectorRep(
            Z2, {"*": 2}, {E: Matrix.identity(2), TAU: Matrix([[0, 1], [1, 0]])}
        )
        assert verify_vector_rep(swap).ok

    def test_singular_matrix_rejected(self):
        rep = VectorRep(
            Z2, {"*": 2}, {E: Matrix.identity(2), TAU: Matrix([[1, 1], [1, 1]])}
        )
        report = verify_vector_rep(rep)
        assert not report.ok
        assert any("singular" in p for p in report.problems)


class TestCharacteristicFunction:
    def test_plain_scalar(self):
        phi = characteristic_function(pair2_line_rep(Fraction(5)))
        assert phi(("e:x>y",)) == 5

    def test_sigma_shift_stays_in_class(self):
        rep = pair2_line_rep(Fraction(5))
        phi = characteristic_function(rep)
        shifted = characteristic_function(
            rep, Trivialization({"x": Fraction(2), "y": Fraction(1)})
        )
        assert shifted(("e:x>y",)) == 10
        assert class_equal(PAIR2, shifted, phi)

    def test_sign(self):
        phi = characteristic_function(sign_rep())
        assert phi((TAU,)) == -1

    def test_always_a_cocycle(self):
        rng = random.Random(31)
        for fx in standard_fixtures():
            for _ in range(5):
                rep = rand_line_rep(rng, fx)
                sigma = rand_trivialization(rng, fx.gpd)
                assert is_cocycle_1(fx.gpd, characteristic_function(rep, sigma))

    def test_sigma_rescale_is_exact_coboundary_shift(self):
        rng = random.Random(32)
        for fx in standard_fixtures():
            rep = rand_line_rep(rng, fx)
            sigma = rand_trivialization(rng, fx.gpd)
            f = rand_potential(rng, fx.gpd)
            rescaled = Trivialization({x: f[x] * sigma(x) for x in fx.gpd.objects})
            lhs = characteristic_function(rep, rescaled)
            rhs = characteristic_function(rep, sigma) * coboundary(
                fx.gpd, Cochain(0, f)
            )
            assert lhs.values == rhs.values


def test_rescale_refuses_a_cochain_missing_a_scaled_object():
    # dropping b would silently reset its scale of 3 to 1
    sigma = Trivialization({"a": 2, "b": 3, "c": 5})
    with pytest.raises(ValueError, match="scaled object 'b'"):
        sigma.rescale(Cochain(0, {"a": 1}))
    # objects f covers beyond the scaled ones are divided from the default 1
    assert sigma.rescale(Cochain(0, {"a": 2, "b": 3, "c": 5, "d": 4})) == Trivialization(
        {"a": 1, "b": 1, "c": 1, "d": Fraction(1, 4)}
    )


def test_trivialization_rejects_float_scales():
    with pytest.raises(TypeError, match="exact rationals"):
        Trivialization({"x": 0.1})


class TestTensor:
    def test_unit(self):
        rep = pair2_line_rep(Fraction(7))
        assert tensor(rep, trivial_line_rep(PAIR2)).action == rep.action

    def test_sign_squares_to_trivial(self):
        squared = tensor(sign_rep(), sign_rep())
        assert all(v == 1 for v in squared.action.values())
        assert modular_class_for_line(squared).is_coboundary

    def test_pointwise_product(self):
        rng = random.Random(33)
        for fx in standard_fixtures():
            r1, r2 = rand_line_rep(rng, fx), rand_line_rep(rng, fx)
            lhs = characteristic_function(tensor(r1, r2))
            rhs = characteristic_function(r1) * characteristic_function(r2)
            assert lhs.values == rhs.values

    def test_triviality_decisions_multiply(self):
        sign = sign_rep()
        assert not modular_class_for_line(sign).is_coboundary
        assert not modular_class_for_line(tensor(sign, trivial_line_rep(Z2))).is_coboundary
        assert modular_class_for_line(tensor(sign, sign)).is_coboundary

    def test_groupoid_mismatch(self):
        with pytest.raises(ValueError):
            tensor(sign_rep(), trivial_line_rep(PAIR2))


def modular_class_for_line(rep: LineRep):
    return coboundary_solve_1(rep.groupoid, characteristic_function(rep))


class TestDetRepresentation:
    def test_one_dimensional_is_itself(self):
        rep = VectorRep(Z2, {"*": 1}, {E: Matrix([[1]]), TAU: Matrix([[-1]])})
        assert verify_vector_rep(rep).dets == {E: Fraction(1), TAU: Fraction(-1)}

    def test_swap(self):
        swap = VectorRep(
            Z2, {"*": 2}, {E: Matrix.identity(2), TAU: Matrix([[0, 1], [1, 0]])}
        )
        assert verify_vector_rep(swap).dets[TAU] == -1

    def test_diagonal(self):
        rep = VectorRep(
            PAIR2,
            {"x": 2, "y": 2},
            {
                "e:x>x": Matrix.identity(2),
                "e:y>y": Matrix.identity(2),
                "e:x>y": Matrix([[2, 0], [0, 3]]),
                "e:y>x": Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]),
            },
        )
        assert verify_vector_rep(rep).dets["e:x>y"] == 6


class TestModularClassVector:
    def test_swap_is_nontrivial(self):
        swap = VectorRep(
            Z2, {"*": 2}, {E: Matrix.identity(2), TAU: Matrix([[0, 1], [1, 0]])}
        )
        report = modular_class(swap)
        assert not report.is_coboundary
        assert report.obstructions == [(TAU, Fraction(-1))]

    def test_pair_groupoid_always_trivial(self):
        rng = random.Random(34)
        for _ in range(5):
            rep = rand_vector_rep(rng, pair2_fixture())
            report = modular_class(rep, rand_trivialization(rng, PAIR2))
            assert report.is_coboundary

    def test_trivial_rep(self):
        rep = VectorRep(
            Z2, {"*": 2}, {E: Matrix.identity(2), TAU: Matrix.identity(2)}
        )
        report = modular_class(rep)
        assert report.is_coboundary
        assert all(v == 1 for v in report.witness.values.values())

    @pytest.mark.parametrize(
        ("rep", "kind"),
        [
            (VectorRep(Z2, {"*": 1}, {E: Matrix([[1]]), TAU: Matrix([[2]])}), "vector"),
            (VectorRep(Z2, {"*": 1}, {E: Matrix([[1]]), TAU: Matrix([[0]])}), "vector"),
            (LineRep(Z2, {E: Fraction(1), TAU: Fraction(2)}), "line"),
        ],
        ids=["not-functorial", "singular", "line"],
    )
    def test_invalid_rep_raises_the_first_problem(self, rep, kind):
        # as for a homotopy rep: the law check's first problem, not a
        # complaint about the cocycle or a determinant taken again
        assert rep.kind == kind
        check = verify_line_rep(rep) if kind == "line" else verify_vector_rep(rep)
        with pytest.raises(ValueError) as raised:
            modular_class(rep)
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"not a {kind} representation: {check.problems[0]}"

    def test_line_rep_is_its_own_line(self):
        rng = random.Random(44)
        for fx in standard_fixtures()[:3]:
            rep = rand_line_rep(rng, fx)
            sigma = rand_trivialization(rng, fx.gpd)
            # the checked solver on the characteristic cocycle gives the same report
            assert modular_class(rep, sigma) == coboundary_solve_1(
                fx.gpd, characteristic_function(rep, sigma)
            )


def acyc() -> ComplexFiber:
    return ComplexFiber(0, 1, {0: 1, 1: 1}, {0: Matrix([[1]])})


def zero_map_rep_on_acyc() -> RepUpToWeakHomotopy:
    fiber = acyc()
    return RepUpToWeakHomotopy(
        Z2,
        {"*": fiber},
        {E: ChainMap.identity(fiber), TAU: ChainMap.zero(fiber, fiber)},
    )


def odd_sign_rep() -> RepUpToWeakHomotopy:
    fiber = ComplexFiber(1, 1, {1: 1}, {})
    return RepUpToWeakHomotopy(
        Z2,
        {"*": fiber},
        {E: ChainMap.identity(fiber), TAU: ChainMap(fiber, fiber, {1: Matrix([[-1]])})},
    )


class TestVerifyRuth:
    def test_strict_rep_in_one_degree(self):
        rng = random.Random(35)
        rep = strict_as_homotopy(rand_vector_rep(rng, z2_fixture()))
        report = verify_ruth(rep)
        assert report.ok
        gpd = rep.groupoid
        # with zero differentials homotopies have nowhere to live
        for g, h in report.certificates:
            homotopy = homotopy_between(rep(g).compose(rep(h)), rep(gpd.compose(g, h)))
            assert all(m.is_zero() for m in homotopy.components.values())

    def test_zero_action_on_acyclic_fiber(self):
        report = verify_ruth(zero_map_rep_on_acyc())
        assert report.ok
        assert len(report.certificates) == 4

    def test_scalar_two_on_rigid_fiber(self):
        fiber = ComplexFiber(0, 0, {0: 1}, {})
        rep = RepUpToWeakHomotopy(
            Z2,
            {"*": fiber},
            {E: ChainMap.identity(fiber), TAU: ChainMap(fiber, fiber, {0: Matrix([[2]])})},
        )
        report = verify_ruth(rep)
        assert not report.ok
        assert any("no homotopy" in p for p in report.problems)

    def test_certificate_of_an_uncertified_pair_raises(self):
        fiber = ComplexFiber(0, 0, {0: 1}, {})
        rep = RepUpToWeakHomotopy(
            Z2,
            {"*": fiber},
            {E: ChainMap.identity(fiber), TAU: ChainMap(fiber, fiber, {0: Matrix([[2]])})},
        )
        report = verify_ruth(rep)
        assert (E, TAU) in report.certificates and (TAU, TAU) not in report.certificates
        homotopy = homotopy_between(rep(E).compose(rep(TAU)), rep(TAU))
        assert homotopy.boundary_conjugate().component(0).is_zero()
        assert homotopy_between(rep(TAU).compose(rep(TAU)), rep(E)) is None

    def test_invalid_complex_is_reported_not_raised(self):
        # d^1 d^0 = [[1]] is not zero
        fiber = ComplexFiber(
            0, 2, {0: 1, 1: 1, 2: 1}, {0: Matrix([[1]]), 1: Matrix([[1]])}
        )
        identity = ChainMap.identity(fiber)
        rep = RepUpToWeakHomotopy(Z2, {"*": fiber}, {E: identity, TAU: identity})
        report = verify_ruth(rep)
        assert report.problems == ["complex of '*' is invalid: d o d is nonzero starting at degree 0"]


def berezinian_line(rep: RepUpToWeakHomotopy) -> LineRep:
    return verify_ruth(rep).berezinian_rep()


class TestInducedBerRep:
    def test_even_strict_rep_reduces_to_determinant(self):
        rng = random.Random(36)
        strict = rand_vector_rep(rng, z2_fixture())
        rep = berezinian_line(strict_as_homotopy(strict))
        assert rep.action == verify_vector_rep(strict).dets

    def test_zero_on_acyclic_forces_one(self):
        rep = berezinian_line(zero_map_rep_on_acyc())
        assert rep.action == {E: Fraction(1), TAU: Fraction(1)}

    def test_odd_line_inverts(self):
        rep = berezinian_line(odd_sign_rep())
        assert rep(TAU) == -1

    def test_functorial_on_random_inputs(self):
        rng = random.Random(37)
        for fx in standard_fixtures()[:3]:
            rep = berezinian_line(rand_ruth(rng, fx))
            assert verify_line_rep(rep).ok

    def test_rejects_unequal_graded_dims(self):
        fiber_x = ComplexFiber(0, 0, {0: 1}, {})
        fiber_y = ComplexFiber(0, 0, {0: 2}, {})
        gpd = PAIR2
        rep = RepUpToWeakHomotopy(
            gpd,
            {"x": fiber_x, "y": fiber_y},
            {
                "e:x>x": ChainMap.identity(fiber_x),
                "e:y>y": ChainMap.identity(fiber_y),
                "e:x>y": ChainMap.zero(fiber_x, fiber_y),
                "e:y>x": ChainMap.zero(fiber_y, fiber_x),
            },
        )
        with pytest.raises(GradedDimensionMismatch):
            berezinian_line(rep)


    def test_rejects_blocks_whose_determinants_alone_multiply(self):
        # tau acts by 2 in both degrees: its Berezinian 2/2 = 1 is a line
        # representation, but tau o tau = 4 is not homotopic to the identity
        fiber = ComplexFiber(0, 1, {0: 1, 1: 1}, {})
        doubled = ChainMap(fiber, fiber, {0: Matrix([[2]]), 1: Matrix([[2]])})
        rep = RepUpToWeakHomotopy(Z2, {"*": fiber}, {E: ChainMap.identity(fiber), TAU: doubled})
        problem = verify_ruth(rep).problems[0]
        for read in (berezinian_line, modular_class, regular_factorization_check):
            with pytest.raises(ValueError, match=re.escape(problem)) as raised:
                read(rep)
            assert type(raised.value) is ValueError

    def test_unequal_graded_dims_win_over_other_problems(self):
        fiber_x = ComplexFiber(0, 0, {0: 1}, {})
        fiber_y = ComplexFiber(0, 0, {0: 2}, {})
        rep = RepUpToWeakHomotopy(
            PAIR2,
            {"x": fiber_x, "y": fiber_y},
            {
                "e:x>x": ChainMap.identity(fiber_y),
                "e:y>y": ChainMap.identity(fiber_y),
                "e:x>y": ChainMap.zero(fiber_x, fiber_y),
                "e:y>x": ChainMap.zero(fiber_y, fiber_x),
            },
        )
        assert verify_ruth(rep).problems[0] == "action of arrow 'e:x>x' joins the wrong fibers"
        with pytest.raises(GradedDimensionMismatch, match="arrow 'e:x>y'"):
            berezinian_line(rep)


class TestModularClassRuth:
    def test_odd_sign_nontrivial(self):
        report = modular_class(odd_sign_rep())
        assert not report.is_coboundary
        assert report.cocycle((TAU,)) == -1

    def test_acyclic_two_term_rep_has_unit_cocycle(self):
        fiber = acyc()
        rep = RepUpToWeakHomotopy(
            PAIR2,
            {"x": fiber, "y": fiber},
            {
                "e:x>x": ChainMap.identity(fiber),
                "e:y>y": ChainMap.identity(fiber),
                "e:x>y": ChainMap.zero(fiber, fiber),
                "e:y>x": ChainMap.zero(fiber, fiber),
            },
        )
        report = modular_class(rep)
        assert report.cocycle.is_one()
        assert report.is_coboundary

    def test_pair_groupoid_reps_trivial(self):
        rng = random.Random(38)
        for _ in range(4):
            rep = rand_ruth(rng, pair2_fixture())
            report = modular_class(rep, rand_trivialization(rng, PAIR2))
            assert report.is_coboundary

    def test_matches_vector_pipeline_in_even_degree(self):
        rng = random.Random(39)
        for fx in standard_fixtures()[:3]:
            strict = rand_vector_rep(rng, fx)
            sigma = rand_trivialization(rng, fx.gpd)
            for degree in (0, 2):
                as_ruth = strict_as_homotopy(strict, degree)
                lhs = modular_class(as_ruth, sigma)
                rhs = modular_class(strict, sigma)
                assert lhs.cocycle.values == rhs.cocycle.values
                assert lhs.is_coboundary == rhs.is_coboundary

    def test_cochain_unchanged_by_decomposition_convention(self):
        rng = random.Random(40)
        fx = z2_fixture()
        rep = rand_ruth(rng, fx)
        report = modular_class(rep)
        fiber = rep.complexes["*"]
        perm = {
            i: rng.sample(range(fiber.dim(i)), fiber.dim(i)) for i in fiber.degrees()
        }
        dec = permuted_decomposition(fiber, perm)
        for a in fx.gpd.arrow_ids():
            blocks = harmonic_blocks(rep(a), dec, dec)
            assert _class_berezinian(blocks, dec, dec, 1, 1) == report.cocycle((a,))


def cohomology_from_report(rep: RepUpToWeakHomotopy, degree: int) -> VectorRep:
    """The action on degree-``degree`` cohomology, read off a passing
    ``verify_ruth`` report: each arrow's harmonic block, and the harmonic
    dimensions of the report's decompositions.  It must equal the oracle
    built on fresh decompositions."""
    report = verify_ruth(rep)
    gpd, decs = rep.groupoid, report.decompositions
    dims = {x: decs[x].harmonic_dims.get(degree, 0) for x in gpd.objects}
    action = {a: b.get(degree, Matrix.zeros(0, 0)) for a, b in report.blocks.items()}
    expected = per_degree_cohomology_rep(rep, degree)
    assert (dims, action) == (expected.dims, expected.action)
    return VectorRep(gpd, dims, action)


class TestCohomologyRepresentation:
    def test_no_differential_returns_degree_component(self):
        rng = random.Random(41)
        strict = rand_vector_rep(rng, z2_fixture())
        rep = strict_as_homotopy(strict, 0)
        induced = cohomology_from_report(rep, 0)
        assert induced.action == dict(strict.action)

    def test_acyclic_gives_empty_rep(self):
        induced = cohomology_from_report(zero_map_rep_on_acyc(), 0)
        assert induced.dims == {"*": 0}
        assert verify_vector_rep(induced).ok

    def test_partial_differential(self):
        fiber = ComplexFiber(0, 1, {0: 2, 1: 1}, {0: Matrix([[1, 0]])})
        rep = RepUpToWeakHomotopy(
            Z2,
            {"*": fiber},
            {E: ChainMap.identity(fiber), TAU: ChainMap.identity(fiber)},
        )
        h0 = cohomology_from_report(rep, 0)
        h1 = cohomology_from_report(rep, 1)
        assert (h0.dims["*"], h1.dims["*"]) == (1, 0)
        assert verify_vector_rep(h0).ok


class TestRegularFactorization:
    def test_single_even_degree_sides_coincide(self):
        rng = random.Random(42)
        strict = rand_vector_rep(rng, z2_fixture())
        rep = strict_as_homotopy(strict, 0)
        total = characteristic_function(berezinian_line(rep))
        factor = characteristic_function(
            LineRep(rep.groupoid, verify_vector_rep(cohomology_from_report(rep, 0)).dets)
        )
        assert total.values == factor.values
        assert regular_factorization_check(rep)

    def test_acyclic_fibers(self):
        assert regular_factorization_check(zero_map_rep_on_acyc())

    def test_randomized(self):
        rng = random.Random(43)
        for fx in standard_fixtures()[:3]:
            for _ in range(3):
                rep = rand_ruth(rng, fx)
                assert regular_factorization_check(
                    rep, rand_trivialization(rng, fx.gpd)
                )


class TestIdentityWork:
    """A unit acting by the identity costs no change of basis (so no
    chain-map check and no harmonic blocks), no Berezinian and no
    product in the functoriality check; any other unit takes the full
    path."""

    @pytest.fixture
    def spied(self, monkeypatch):
        seen = {"_in_bases": [], "products": []}
        original = reps_module._in_bases

        def spy(t, *args):
            seen["_in_bases"].append(t)
            return original(t, *args)

        monkeypatch.setattr(reps_module, "_in_bases", spy)
        checker, checking = groupoid_module._is_functorial, [False]

        def checked(*args):
            checking[0] = True
            try:
                return checker(*args)
            finally:
                checking[0] = False

        def counted(original):
            # a product the checker builds or compares with a third matrix
            def call(a, b, *rest):
                if checking[0]:
                    seen["products"].append((a, b))
                return original(a, b, *rest)
            return call

        monkeypatch.setattr(groupoid_module, "_is_functorial", checked)
        for name in ("__mul__", "product_equals"):
            monkeypatch.setattr(Matrix, name, counted(getattr(Matrix, name)))
        return seen

    def test_an_identity_unit_is_free(self, spied):
        rep = rand_ruth(random.Random(7), z2_fixture())
        report = verify_ruth(rep)
        assert report.ok and report.identities == {E}
        assert spied["_in_bases"] == [rep(TAU)]
        # (A) multiplies nothing over one object; (G) multiplies (tau, tau)
        # alone, once in each degree with harmonic content
        tau = report.blocks[TAU]
        harmonic = [i for i, m in tau.items() if m.rows and m.cols]
        assert harmonic and spied["products"] == [(tau[i], tau[i]) for i in harmonic]
        dec = report.decompositions["*"]
        assert report.blocks[E] == harmonic_blocks(rep(E), dec, dec)
        sigma = Trivialization({"*": Fraction(3)})
        assert report.berezinian_rep(sigma)(E) == _class_berezinian(
            report.blocks[E], dec, dec, 3, 3
        ) == 1

    def test_a_twisted_unit_takes_the_full_path(self, spied):
        rng = random.Random(7)
        rep = rand_ruth(rng, z2_fixture())
        fiber = rep.complexes["*"]
        twist = rand_homotopy(rng, fiber, fiber).boundary_conjugate()
        assert any(not twist.component(i).is_zero() for i in twist.degrees())
        rep.action[E] = ChainMap.identity(fiber) + twist
        report = verify_ruth(rep)
        assert report.problems == ["unit of object '*' does not act by the identity"]
        assert report.identities == set()
        assert spied["_in_bases"] == [rep(E), rep(TAU)]

    @pytest.mark.parametrize("index", range(4))
    def test_two_products_per_arrow_and_degree(self, index, monkeypatch):
        # one change of basis per non-identity arrow and degree, read off
        # the factors of the two splits with no dense product (the two
        # products of basis_inv t basis), and no product for d o d:
        # decompose alone decides that the fibers are complexes, so
        # verify_complex does not run on them
        fx = standard_fixtures()[index]
        rep = rand_ruth(random.Random(11), fx)
        products, changes, scanning, worded = [0], [0], [False], []
        mul, failing, complex_check = Matrix.__mul__, reps_module._failing_pairs, reps_module.verify_complex
        change = complexes_module.change_of_basis

        def counted(a, b):
            products[0] += not scanning[0]
            return mul(a, b)

        def counted_change(*args):
            changes[0] += 1
            return change(*args)

        def scanned(*args):
            # the functoriality check multiplies harmonic blocks: not counted here
            scanning[0] = True
            try:
                return failing(*args)
            finally:
                scanning[0] = False

        monkeypatch.setattr(Matrix, "__mul__", counted)
        monkeypatch.setattr(complexes_module, "change_of_basis", counted_change)
        monkeypatch.setattr(reps_module, "_failing_pairs", scanned)
        monkeypatch.setattr(reps_module, "verify_complex", lambda c: worded.append(c) or complex_check(c))
        report = verify_ruth(rep)
        assert report.ok and worded == []
        moved = [a for a in fx.gpd.arrow_ids() if a not in report.identities]
        assert (products[0], changes[0]) == (0, sum(len(rep(a).degrees()) for a in moved))
        assert changes[0] > 0

    def test_a_unit_shared_by_two_objects_is_compared_at_each(self):
        # an identity table giving y the unit of x: that unit acts by the
        # identity of x's fiber, which is not y's, so y fails the unit law
        fx, fy = (ComplexFiber(0, 1, {0: 1, 1: 1}, {0: Matrix([[k]])}) for k in (1, 2))
        action = {
            "e:x>x": ChainMap.identity(fx),
            "e:y>y": ChainMap.identity(fy),
            "e:x>y": ChainMap(fx, fy, {0: Matrix([[1]]), 1: Matrix([[2]])}),
            "e:y>x": ChainMap(fy, fx, {0: Matrix([[1]]), 1: Matrix([[Fraction(1, 2)]])}),
        }
        gpd = FiniteGroupoid(
            PAIR2.objects, PAIR2.arrows, {"x": "e:x>x", "y": "e:x>x"}, PAIR2.inverse, PAIR2.composition
        )
        rep = RepUpToWeakHomotopy(gpd, {"x": fx, "y": fy}, action)
        report = verify_ruth(rep)
        assert report.identities == {"e:x>x"}
        assert report.problems == pair_scan_ruth(rep)[0] == [
            "unit of object 'y' does not act by the identity"
        ]
