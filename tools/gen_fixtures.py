#!/usr/bin/env python3
"""Regenerate the shipped example documents under src/modclass/fixtures/."""

import json
import pathlib
from fractions import Fraction
from itertools import permutations

from modclass import (
    ChainMap,
    ComplexFiber,
    Cochain,
    FiniteGroupoid,
    InputDocument,
    LineRep,
    Matrix,
    RepUpToWeakHomotopy,
    Trivialization,
    VectorRep,
    action_groupoid,
    serialize,
)

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "modclass" / "fixtures"


def z2() -> FiniteGroupoid:
    return FiniteGroupoid(
        objects=["*"],
        arrows=[("e", "*", "*"), ("t", "*", "*")],
        identity={"*": "e"},
        inverse={"e": "e", "t": "t"},
        composition={("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
    )


def pair2() -> FiniteGroupoid:
    return FiniteGroupoid(
        objects=["x", "y"],
        arrows=[("1x", "x", "x"), ("1y", "y", "y"), ("g", "x", "y"), ("ginv", "y", "x")],
        identity={"x": "1x", "y": "1y"},
        inverse={"1x": "1x", "1y": "1y", "g": "ginv", "ginv": "g"},
        composition={
            ("1x", "1x"): "1x",
            ("1x", "ginv"): "ginv",
            ("1y", "1y"): "1y",
            ("1y", "g"): "g",
            ("g", "1x"): "g",
            ("g", "ginv"): "1y",
            ("ginv", "1y"): "ginv",
            ("ginv", "g"): "1x",
        },
    )


def z2_sign_odd() -> InputDocument:
    gpd = z2()
    fiber = ComplexFiber(1, 1, {1: 1}, {})
    rep = RepUpToWeakHomotopy(
        gpd,
        {"*": fiber},
        {
            "e": ChainMap.identity(fiber),
            "t": ChainMap(fiber, fiber, {1: Matrix([[-1]])}),
        },
    )
    cochain = Cochain(1, {("e",): Fraction(1), ("t",): Fraction(-1)})
    return InputDocument(gpd, rep, None, cochain)


def pair2_doc() -> InputDocument:
    gpd = pair2()
    ident = Matrix.identity(2)
    act = Matrix([[2, 0], [0, 3]])
    act_inv = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    rep = VectorRep(
        gpd,
        {"x": 2, "y": 2},
        {"1x": ident, "1y": ident, "g": act, "ginv": act_inv},
    )
    sigma = Trivialization({"x": Fraction(2), "y": Fraction(1)})
    cochain = Cochain(
        1,
        {
            ("1x",): Fraction(1),
            ("1y",): Fraction(1),
            ("g",): Fraction(2),
            ("ginv",): Fraction(1, 2),
        },
    )
    return InputDocument(gpd, rep, sigma, cochain)


def s3_action_doc() -> InputDocument:
    gpd = action_groupoid(permutations(range(3)), 3)

    def parity(p: tuple[int, ...]) -> int:
        swaps = sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j])
        return -1 if swaps % 2 else 1

    action = {}
    for a in gpd.arrow_ids():
        digits = a[1 : a.index("@")]
        action[a] = Fraction(parity(tuple(int(d) for d in digits)))
    return InputDocument(gpd, LineRep(gpd, action), None, None)


def acyclic_two_term_doc() -> InputDocument:
    gpd = pair2()
    fiber = ComplexFiber(0, 1, {0: 1, 1: 1}, {0: Matrix([[1]])})
    fibers = {"x": fiber, "y": fiber}
    rep = RepUpToWeakHomotopy(
        gpd,
        fibers,
        {
            "1x": ChainMap.identity(fiber),
            "1y": ChainMap.identity(fiber),
            "g": ChainMap.zero(fiber, fiber),
            "ginv": ChainMap.zero(fiber, fiber),
        },
    )
    return InputDocument(gpd, rep, None, None)


def documents() -> dict[str, InputDocument]:
    """The shipped documents by file name."""
    return {
        "z2_sign_odd.json": z2_sign_odd(),
        "pair2.json": pair2_doc(),
        "s3_action.json": s3_action_doc(),
        "acyclic_two_term.json": acyclic_two_term_doc(),
    }


def render(doc: InputDocument) -> str:
    """A document as the text of its fixture file."""
    return json.dumps(serialize(doc), indent=2) + "\n"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for name, doc in documents().items():
        path = OUT / name
        path.write_text(render(doc), encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()
