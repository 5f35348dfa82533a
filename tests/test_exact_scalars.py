"""Every library entry that takes a scalar takes an exact one.

Matrix entries and scalars, cochain values, line actions, trivialization
scales and the scale ratio of a Berezinian all go through
``linalg._exact``: a ``float`` or a ``str`` is a TypeError.  A line
action is read when the rep is built, under the name of the cochain of
values it defines, so ``characteristic_function`` rescales exact values
only.  A string is refused even where ``Fraction`` would read it
("1e-3", " 3/4 "): strings are read by ``parse_rational``, which holds
to the published pattern.  Each float keeps the message its caller has
always given.
"""

from fractions import Fraction

import pytest

from modclass import (
    ChainMap,
    Cochain,
    ComplexFiber,
    LineRep,
    Matrix,
    Trivialization,
    berezinian,
    berezinian_class,
    characteristic_function,
    cyclic_groupoid,
    verify_line_rep,
)

Z2 = cyclic_groupoid(2)
E, TAU = "e:*>*", "r1:*>*"
FIBER = ComplexFiber(0, 1, {0: 1, 1: 1}, {})

# each entry: the call, and the message of a float
ENTRIES = {
    "matrix entry": (lambda x: Matrix([[1, x]]), "matrix entries must be exact rationals"),
    "matrix scale": (lambda x: Matrix([[1]]).scale(x), "matrix scalars must be exact rationals"),
    "scalar times matrix": (lambda x: x * Matrix([[1]]), "matrix scalars must be exact rationals"),
    "cochain": (lambda x: Cochain(0, {"*": x}), "cochain values must be exact rationals"),
    "constant cochain": (
        lambda x: Cochain.constant(1, [(E,), (TAU,)], x),
        "cochain values must be exact rationals",
    ),
    "trivialization": (
        lambda x: Trivialization({"*": x}),
        "trivialization scales must be exact rationals",
    ),
    "berezinian scale": (
        lambda x: berezinian(ChainMap.identity(FIBER), 1, x),
        "trivialization scales must be exact rationals",
    ),
    "berezinian_class scale": (
        lambda x: berezinian_class(ChainMap.identity(FIBER), x, 1),
        "trivialization scales must be exact rationals",
    ),
    "line action": (
        lambda x: LineRep(Z2, {E: Fraction(1), TAU: x}),
        "cochain values must be exact rationals",
    ),
    "rescaled line action": (
        lambda x: characteristic_function(
            LineRep(Z2, {E: Fraction(1), TAU: x}), Trivialization({"*": Fraction(2)})
        ),
        "cochain values must be exact rationals",
    ),
}


@pytest.mark.parametrize("text", ["1e-3", " 3/4 ", "1/2", "-2"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_string_is_refused(entry, text):
    call, _ = ENTRIES[entry]
    with pytest.raises(TypeError, match="read the string .* with parse_rational"):
        call(text)


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_float_keeps_its_message(entry):
    call, message = ENTRIES[entry]
    with pytest.raises(TypeError) as raised:
        call(0.5)
    assert str(raised.value) == message


@pytest.mark.parametrize("value", [Fraction(-3, 4), 5])
@pytest.mark.parametrize("entry", ENTRIES)
def test_an_exact_value_is_taken(entry, value):
    call, _ = ENTRIES[entry]
    call(value)


def test_a_float_line_action_is_refused_before_its_check():
    # refused as the rep is built: no check or class ever reads a float
    with pytest.raises(TypeError, match="exact rationals"):
        verify_line_rep(LineRep(Z2, {E: 1.0, TAU: -1.0}))


def test_a_line_action_is_kept_as_fractions():
    action = LineRep(Z2, {E: 1, TAU: Fraction(-1)}).action
    assert action == {E: 1, TAU: -1}
    assert all(type(v) is Fraction for v in action.values())


@pytest.mark.parametrize(
    ("action", "problem"),
    [
        ({E: Fraction(1)}, f"arrow '{TAU}' has no action"),
        ({E: Fraction(1), TAU: None}, f"arrow '{TAU}' has no action"),
        ({E: Fraction(1), TAU: 0}, f"action of arrow '{TAU}' is zero"),
    ],
    ids=["missing", "none", "zero"],
)
def test_a_missing_or_zero_line_action_is_still_reported(action, problem):
    assert verify_line_rep(LineRep(Z2, action)).problems == [problem]
