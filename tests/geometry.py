"""Input documents whose modular classes topology fixes, built without modclass.

A finite group acting on a simplicial complex by vertex permutations acts
on its simplicial cochains by pull-back: ``g`` acts by ``(g^-1)^*``, and
``(f^* phi)(s) = phi(f(s))`` reads the image of an oriented simplex with
the sign of the permutation that sorts its vertices.  Pull-back commutes
with the coboundary ``(d phi)(s) = sum_j (-1)^j phi(s minus vertex j)``,
so each document is a strict representation of the group, a one-object
groupoid, on the cochain complex of the space (degrees 0 to its
dimension).  Its cohomology is the space's, and an arrow's Berezinian is
``prod_i det H^i(g)^((-1)^i)``.  No trivialization is given, so the
reported cocycle is the Berezinian itself.

- :func:`sphere` is the boundary of the ``(n+1)``-dimensional
  cross-polytope, a triangulated ``n``-sphere with ``3^(n+1) - 1`` cells,
  with the antipodal map ``a``.  ``a`` acts trivially on ``H^0`` and by
  its degree ``(-1)^(n+1)`` on ``H^n`` (Hatcher, *Algebraic Topology*,
  2002, section 2.2), so its Berezinian is ``(-1)^(n+1)`` and the class is
  trivial exactly when ``n`` is odd.
- :func:`triangle` is the boundary of a triangle with S3 permuting its
  vertices: ``H^0`` is trivial and ``H^1`` is the sign, so the Berezinian
  is the sign character and the class is nontrivial.

Matrices are lists of rows of "p" strings, as the documents carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product


@dataclass
class Case:
    name: str
    document: dict
    berezinian: dict[str, str]  # arrow -> its Berezinian, as the report prints it
    trivial: bool


def _sign(sequence) -> int:
    """The sign of the permutation that sorts ``sequence`` (distinct items)."""
    s = list(sequence)
    inversions = sum(s[i] > s[j] for i, j in combinations(range(len(s)), 2))
    return -1 if inversions % 2 else 1


def _strings(rows) -> list[list[str]]:
    return [[str(x) for x in row] for row in rows]


def _pull_back(levels, index, f) -> dict[str, list[list[str]]]:
    """The matrix of ``f^*`` in each degree, for the vertex map ``f`` (a tuple)."""
    mats = {}
    for p, level in enumerate(levels):
        rows = [[0] * len(level) for _ in level]
        for r, simplex in enumerate(level):
            image = [f[v] for v in simplex]
            rows[r][index[p][tuple(sorted(image))]] = _sign(image)
        mats[str(p)] = _strings(rows)
    return mats


def _document(levels, elements: dict[str, tuple]) -> dict:
    """The one-object document of the group ``elements`` (arrow id -> vertex
    permutation, closed under composition) acting on the cochains of the
    simplicial complex whose ``p``-simplices, sorted vertex tuples, are
    ``levels[p]``."""
    index = [{s: k for k, s in enumerate(level)} for level in levels]
    differentials = {}
    for p in range(len(levels) - 1):
        rows = [[0] * len(levels[p]) for _ in levels[p + 1]]
        for r, simplex in enumerate(levels[p + 1]):
            for j in range(len(simplex)):
                rows[r][index[p][simplex[:j] + simplex[j + 1:]]] = (-1) ** j
        differentials[str(p)] = _strings(rows)
    named = {perm: a for a, perm in elements.items()}
    n = len(next(iter(elements.values())))
    unit = named[tuple(range(n))]

    def inverse(perm):
        inv = [0] * n
        for v, w in enumerate(perm):
            inv[w] = v
        return tuple(inv)

    compose = [
        [g, h, named[tuple(elements[g][v] for v in elements[h])]]
        for g in elements
        for h in elements
    ]
    return {
        "groupoid": {
            "objects": ["*"],
            "arrows": [{"id": a, "src": "*", "tgt": "*"} for a in elements],
            "identity": {"*": unit},
            "inverse": {a: named[inverse(perm)] for a, perm in elements.items()},
            "compose": compose,
        },
        "complex": {
            "*": {
                "degrees": [0, len(levels) - 1],
                "dims": {str(p): len(level) for p, level in enumerate(levels)},
                "differentials": differentials,
            }
        },
        "rep": {a: _pull_back(levels, index, inverse(perm)) for a, perm in elements.items()},
    }


def sphere(n: int) -> Case:
    """The boundary of the ``(n+1)``-dimensional cross-polytope with the antipodal Z/2.

    Vertex ``2k`` is ``+e_k`` and ``2k + 1`` is ``-e_k``; a simplex takes at
    most one of the two from each coordinate, and the antipodal map swaps
    them.
    """
    levels = [
        [
            tuple(2 * k + s for k, s in zip(coords, signs))
            for coords in combinations(range(n + 1), p + 1)
            for signs in product((0, 1), repeat=p + 1)
        ]
        for p in range(n + 1)
    ]
    vertices = range(2 * n + 2)
    elements = {"e": tuple(vertices), "a": tuple(v ^ 1 for v in vertices)}
    value = str((-1) ** (n + 1))
    return Case(f"S{n}", _document(levels, elements), {"e": "1", "a": value}, n % 2 == 1)


def triangle() -> Case:
    """The boundary of a triangle, with S3 permuting its three vertices."""
    levels = [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]
    elements = {"p" + "".join(map(str, perm)): perm for perm in permutations(range(3))}
    signs = {a: str(_sign(perm)) for a, perm in elements.items()}
    return Case("triangle", _document(levels, elements), signs, False)


def cases() -> list[Case]:
    return [sphere(1), sphere(2), sphere(3), triangle()]
