"""Seeded input documents for the modclass benchmark, with their expected reports.

Nothing here imports modclass.  Every document is assembled from explicit
structure (groupoid tables, group representations, per-object bases,
homotopy twists), and every expected value is read off that structure:

* a representation up to weak homotopy acts on the fiber of object x by
  ``T_a = Q_y (H(a) + pads) Q_x^-1`` plus ``d K + K d`` for a random
  homotopy K, where Q_x is a per-object change of basis and H_d(a) =
  F_y R_d(g) F_x^-1 is a conjugated group representation on the degree-d
  cohomology.  Its Berezinian is
  ``prod_d det(H_d(a))^(-1)^d * tau(y)/tau(x) * sigma(x)/sigma(y)`` with
  ``tau(x) = prod_d det(Q_x^d)^(-1)^d``; the class is trivial exactly when
  the character ``prod_d det R_d^(-1)^d`` of the group is;
* a vector representation acts by ``F_y R(g) F_x^-1``, with determinant
  class ``det R``; line representations and cochains are a group character
  times a coboundary.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

ONE = Fraction(1)
ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Exact matrices as lists of rows.


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def scale(c, a):
    return [[c * x for x in r] for r in a]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[ZERO] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


def det(a):
    m = [list(r) for r in a]
    n = len(m)
    value = ONE
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return ZERO
        if p != c:
            m[c], m[p] = m[p], m[c]
            value = -value
        value *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return value


def inverse(a):
    n = len(a)
    m = [list(r) + e for r, e in zip(a, identity(n))]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        pivot = m[c][c]
        m[c] = [x / pivot for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [r[n:] for r in m]


def fmt(x) -> str:
    return str(Fraction(x))


def to_json_matrix(a):
    return [[fmt(x) for x in r] for r in a]


def from_json_matrix(rows):
    return [[Fraction(x) for x in r] for r in rows]


def rand_rational(rng, nonzero=False):
    while True:
        v = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        if v or not nonzero:
            return v


def rand_matrix(rng, rows, cols):
    return [[rand_rational(rng) for _ in range(cols)] for _ in range(rows)]


def rand_unimodular(rng, n):
    """Integer matrix with integer inverse and det +-1: a signed permutation
    times a unit lower triangular factor with n - 1 entries +-1 below the
    diagonal.  The fixed entry count keeps coefficient sizes, and so the
    cost of eliminating with them, alike from seed to seed."""
    lower = identity(n)
    cells = [(i, j) for i in range(n) for j in range(i)]
    for i, j in rng.sample(cells, min(n - 1, len(cells))):
        lower[i][j] = Fraction(rng.choice((-1, 1)))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[s * x for x in lower[p]] for s, p in zip(signs, perm)]


def rand_frame(rng, n):
    """A random invertible frame: a unimodular matrix times a nonzero rational."""
    return scale(rand_rational(rng, nonzero=True), rand_unimodular(rng, n))


# ---------------------------------------------------------------------------
# Groups and their representations.


@dataclass
class Group:
    name: str
    elements: list
    mult: dict  # (g, h) -> g*h
    irreps: dict  # name -> (dim, g -> matrix)

    def inverse(self, g):
        return next(h for h in self.elements if self.mult[(g, h)] == self.elements[0])

    def rep(self, names):
        """Direct sum of the named irreducible representations."""
        return lambda g: block_diag([self.irreps[n][1](g) for n in names])

    def det_character(self, names):
        rep = self.rep(names)
        return {g: det(rep(g)) for g in self.elements}


def _power(m, k):
    out = identity(len(m))
    for _ in range(k):
        out = mul(out, m)
    return out


def cyclic_group(n: int) -> Group:
    elements = list(range(n))
    mult = {(g, h): (g + h) % n for g in elements for h in elements}
    irreps = {"triv": (1, lambda g: [[ONE]])}
    if n % 2 == 0:
        irreps["sign"] = (1, lambda g: [[Fraction((-1) ** g)]])
    if n == 2:
        irreps["swap"] = (2, lambda g: _power([[ZERO, ONE], [ONE, ZERO]], g))
    if n == 3:
        rot = [[ZERO, -ONE], [ONE, -ONE]]
        irreps["rot"] = (2, lambda g: _power(rot, g))
    return Group(f"Z{n}", elements, mult, irreps)


def _perm_matrix(p):
    return [[ONE if p[j] == i else ZERO for j in range(3)] for i in range(3)]


def _standard(p):
    # the permutation action on the sum-zero plane, basis e0-e1, e1-e2
    m = _perm_matrix(p)
    cols = []
    for v in ([1, -1, 0], [0, 1, -1]):
        w = [sum(m[i][j] * v[j] for j in range(3)) for i in range(3)]
        cols.append([w[0], -w[2]])
    return [[cols[j][i] for j in range(2)] for i in range(2)]


def _sign(p):
    return Fraction(det(_perm_matrix(p)))


def symmetric_3() -> Group:
    elements = list(permutations(range(3)))
    mult = {(p, q): tuple(p[q[i]] for i in range(3)) for p in elements for q in elements}
    irreps = {
        "triv": (1, lambda g: [[ONE]]),
        "sign": (1, lambda g: [[_sign(g)]]),
        "std": (2, _standard),
        "perm": (3, _perm_matrix),
    }
    return Group("S3", elements, mult, irreps)


GROUPS = {"Z2": lambda: cyclic_group(2), "Z3": lambda: cyclic_group(3), "S3": symmetric_3}


def rand_irreps(rng, group: Group, dim: int) -> list:
    """Irreducible summands of a random representation of dimension ``dim``."""
    names = []
    while dim:
        choices = [n for n, (d, _) in group.irreps.items() if d <= dim]
        name = rng.choice(choices)
        names.append(name)
        dim -= group.irreps[name][0]
    return names


# ---------------------------------------------------------------------------
# Connected groupoids: objects x group, arrow (g, i, j) goes from i to j.


@dataclass
class Groupoid:
    group: Group
    objects: list
    arrows: list  # (id, src, tgt)
    element: dict  # arrow id -> group element
    identity: dict
    inverse: dict
    compose: dict  # (g, h) -> g*h, h first

    def src(self, a):
        return self.arrows[self.index[a]][1]

    def tgt(self, a):
        return self.arrows[self.index[a]][2]

    def __post_init__(self):
        self.index = {a: k for k, (a, _, _) in enumerate(self.arrows)}

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "arrows": [{"id": a, "src": s, "tgt": t} for a, s, t in self.arrows],
            "identity": dict(self.identity),
            "inverse": dict(self.inverse),
            "compose": [[g, h, k] for (g, h), k in self.compose.items()],
        }

    def triples(self) -> int:
        """Composable triples (g, h, k): what a full associativity check visits."""
        into = {x: 0 for x in self.objects}
        out = {x: 0 for x in self.objects}
        for _, s, t in self.arrows:
            into[t] += 1
            out[s] += 1
        return sum(out[t] * into[s] for _, s, t in self.arrows)


def connected_groupoid(group: Group, n_objects: int) -> Groupoid:
    objects = [f"o{i}" for i in range(n_objects)] if n_objects > 1 else ["*"]
    names = {g: k for k, g in enumerate(group.elements)}

    def aid(g, i, j):
        return f"g{names[g]}" if n_objects == 1 else f"g{names[g]}_{i}{j}"

    arrows, element, key = [], {}, {}
    for i, x in enumerate(objects):
        for j, y in enumerate(objects):
            for g in group.elements:
                a = aid(g, i, j)
                arrows.append((a, x, y))
                element[a] = g
                key[(g, i, j)] = a
    unit = group.elements[0]
    identity = {x: key[(unit, i, i)] for i, x in enumerate(objects)}
    inverse = {key[(g, i, j)]: key[(group.inverse(g), j, i)] for (g, i, j) in key}
    compose = {}
    for (g, j, k), a in key.items():
        for i in range(len(objects)):
            for h in group.elements:
                compose[(a, key[(h, i, j)])] = key[(group.mult[(g, h)], i, k)]
    return Groupoid(group, objects, arrows, element, identity, inverse, compose)


def rand_potential(rng, objects):
    return {x: rand_rational(rng, nonzero=True) for x in objects}


# ---------------------------------------------------------------------------
# Documents and what their reports must say.


@dataclass
class Request:
    """One parse -> run -> render round trip: a command on a document."""

    doc: int
    command: str
    arrow: str | None = None


@dataclass
class Document:
    name: str
    text: str
    kind: str  # "homotopy", "vector", "line" or "cochain"
    gpd: Groupoid
    cochain: dict  # arrow -> expected value of the reported cocycle
    berezinian: dict | None  # arrow -> expected "berezinian" report field
    trivial: bool
    sizes: dict
    fibers: dict = field(default_factory=dict)  # object -> "q", "q_inv", "diff" -> degree -> matrix
    harmonic: dict = field(default_factory=dict)  # arrow -> degree -> H_d(a)
    sigma: dict = field(default_factory=dict)


def _with_target(rng, group, h_dims, trivial):
    """Per-degree representations whose alternating det character has the wanted class."""
    names = [rand_irreps(rng, group, h) for h in h_dims]

    def char():
        total = {g: ONE for g in group.elements}
        for d, ns in enumerate(names):
            for g, v in group.det_character(ns).items():
                total[g] *= v if d % 2 == 0 else 1 / v
        return total

    if all(v == 1 for v in char().values()) != trivial:
        # multiplying a degree of odd dimension by the sign flips the class
        d = next(d for d, h in enumerate(h_dims) if h % 2 == 1)
        names[d] = ["sign" if n == "triv" else "triv" if n == "sign" else n for n in names[d]]
    if all(v == 1 for v in char().values()) != trivial:
        raise ValueError("degree layout cannot reach the requested class")
    return names


def homotopy_document(rng, name, group: Group, n_objects, h_dims, pads, trivial) -> Document:
    """A representation up to weak homotopy, valid by construction.

    Degree-d coordinates of the base fiber are ordered [harmonic | pads
    starting at d | pads ending at d]; pad p spans degrees p, p+1 and is
    glued by the identity.
    """
    gpd = connected_groupoid(group, n_objects)
    top = len(h_dims) - 1
    starts = {d: [p for p, pd in enumerate(pads) if pd == d] for d in range(top + 1)}
    ends = {d: [p for p, pd in enumerate(pads) if pd + 1 == d] for d in range(top + 1)}
    dims = {d: h_dims[d] + len(starts[d]) + len(ends[d]) for d in range(top + 1)}
    base_diff = {}
    for d in range(top):
        m = [[ZERO] * dims[d] for _ in range(dims[d + 1])]
        for c, p in enumerate(starts[d]):
            m[h_dims[d + 1] + len(starts[d + 1]) + ends[d + 1].index(p)][h_dims[d] + c] = ONE
        base_diff[d] = m

    # The fiber bases, the representation types and which pad scalars vanish
    # set the shapes and coefficient sizes every elimination works with, and
    # so most of a document's cost.  They come from the document's place in
    # the batch, not from the seed, so that runs on different seeds do
    # comparable work; the seed draws the entries of actions, twists, frames
    # and scales.
    bases = random.Random(f"bases/{name}")
    fibers = {}
    for x in gpd.objects:
        q = {d: rand_unimodular(bases, dims[d]) for d in range(top + 1)}
        q_inv = {d: inverse(q[d]) for d in q}
        diff = {d: mul(mul(q[d + 1], base_diff[d]), q_inv[d]) for d in range(top)}
        fibers[x] = {"q": q, "q_inv": q_inv, "diff": diff}

    irreps = _with_target(bases, group, h_dims, trivial)
    reps = [group.rep(ns) for ns in irreps]
    frames = {x: {d: rand_frame(rng, h_dims[d]) for d in range(top + 1)} for x in gpd.objects}
    frames_inv = {x: {d: inverse(f) for d, f in fr.items()} for x, fr in frames.items()}
    sigma = rand_potential(rng, gpd.objects)
    units = set(gpd.identity.values())

    def tau(x):
        value = ONE
        for d, q in fibers[x]["q"].items():
            value = value * det(q) if d % 2 == 0 else value / det(q)
        return value

    taus = {x: tau(x) for x in gpd.objects}
    action, harmonic, ber = {}, {}, {}
    for a, x, y in gpd.arrows:
        g = gpd.element[a]
        blocks = {
            d: mul(mul(frames[y][d], reps[d](g)), frames_inv[x][d]) for d in range(top + 1)
        }
        if a in units:
            scalars = [ONE] * len(pads)
        else:
            scalars = [rand_rational(rng, nonzero=True) if bases.random() < 0.5 else ZERO for _ in pads]
        comps = {}
        for d in range(top + 1):
            base = block_diag(
                [blocks[d]] + [[[scalars[p]]] for p in starts[d]] + [[[scalars[p]]] for p in ends[d]]
            )
            comps[d] = mul(mul(fibers[y]["q"][d], base), fibers[x]["q_inv"][d])
        if a not in units:
            k = {d: rand_matrix(rng, dims[d - 1], dims[d]) for d in range(1, top + 1)}
            for d in range(top + 1):
                twist = []
                if d >= 1:
                    twist.append(mul(fibers[y]["diff"][d - 1], k[d]))
                if d < top:
                    twist.append(mul(k[d + 1], fibers[x]["diff"][d]))
                for t in twist:
                    comps[d] = add(comps[d], t)
        action[a] = comps
        harmonic[a] = blocks
        value = taus[y] / taus[x] * sigma[x] / sigma[y]
        for d in range(top + 1):
            h = det(blocks[d])
            value = value * h if d % 2 == 0 else value / h
        ber[a] = value

    data = {
        "groupoid": gpd.to_json(),
        "complex": {
            x: {
                "degrees": [0, top],
                "dims": {str(d): dims[d] for d in range(top + 1)},
                "differentials": {
                    str(d): to_json_matrix(m) for d, m in fibers[x]["diff"].items()
                },
            }
            for x in gpd.objects
        },
        "rep": {
            a: {str(d): to_json_matrix(m) for d, m in action[a].items()} for a, _, _ in gpd.arrows
        },
        "sigma": {x: fmt(v) for x, v in sigma.items()},
    }
    doc = _document(
        name, data, "homotopy", gpd, ber, ber, trivial, sigma,
        degree_dims=[dims[d] for d in range(top + 1)], harmonic_dims=list(h_dims),
    )
    doc.fibers, doc.harmonic = fibers, harmonic
    return doc


def vector_document(rng, name, group, n_objects, irreps, trivial) -> Document:
    gpd = connected_groupoid(group, n_objects)
    rep = group.rep(irreps)
    dim = sum(group.irreps[n][0] for n in irreps)
    if all(v == 1 for v in group.det_character(irreps).values()) != trivial:
        raise ValueError(f"representation {irreps} does not have the requested class")
    frames = {x: rand_frame(rng, dim) for x in gpd.objects}
    frame_dets = {x: det(f) for x, f in frames.items()}
    frames_inv = {x: inverse(f) for x, f in frames.items()}
    sigma = rand_potential(rng, gpd.objects)
    action, dets, cochain = {}, {}, {}
    for a, x, y in gpd.arrows:
        g = gpd.element[a]
        action[a] = mul(mul(frames[y], rep(g)), frames_inv[x])
        dets[a] = det(rep(g)) * frame_dets[y] / frame_dets[x]
        cochain[a] = dets[a] * sigma[x] / sigma[y]
    data = {
        "groupoid": gpd.to_json(),
        "rep": {a: to_json_matrix(m) for a, m in action.items()},
        "sigma": {x: fmt(v) for x, v in sigma.items()},
    }
    return _document(name, data, "vector", gpd, cochain, dets, trivial, sigma, rep_dim=dim)


def _character(group, trivial):
    if trivial:
        return {g: ONE for g in group.elements}
    return {g: group.irreps["sign"][1](g)[0][0] for g in group.elements}


def line_document(rng, name, group, n_objects, trivial) -> Document:
    gpd = connected_groupoid(group, n_objects)
    chi = _character(group, trivial)
    p = rand_potential(rng, gpd.objects)
    sigma = rand_potential(rng, gpd.objects)
    action = {a: chi[gpd.element[a]] * p[y] / p[x] for a, x, y in gpd.arrows}
    cochain = {a: action[a] * sigma[x] / sigma[y] for a, x, y in gpd.arrows}
    data = {
        "groupoid": gpd.to_json(),
        "rep": {a: fmt(v) for a, v in action.items()},
        "sigma": {x: fmt(v) for x, v in sigma.items()},
    }
    return _document(name, data, "line", gpd, cochain, action, trivial, sigma)


def cochain_document(rng, name, group, n_objects, trivial) -> Document:
    gpd = connected_groupoid(group, n_objects)
    chi = _character(group, trivial)
    p = rand_potential(rng, gpd.objects)
    cochain = {a: chi[gpd.element[a]] * p[x] / p[y] for a, x, y in gpd.arrows}
    data = {"groupoid": gpd.to_json(), "cochain": {a: fmt(v) for a, v in cochain.items()}}
    return _document(name, data, "cochain", gpd, cochain, None, trivial, {})


def _document(name, data, kind, gpd, cochain, ber, trivial, sigma, **sizes) -> Document:
    text = json.dumps(data)
    sizes = {
        "group": gpd.group.name,
        "objects": len(gpd.objects),
        "arrows": len(gpd.arrows),
        "composable_pairs": len(gpd.compose),
        "triples": gpd.triples(),
        **sizes,
        "input_bytes": len(text),
    }
    return Document(name, text, kind, gpd, cochain, ber, trivial, sizes, sigma=sigma)


# ---------------------------------------------------------------------------
# Workloads.  The layout of each batch (groups, sizes, classes, commands) is
# fixed; the seed draws the numbers in it (see homotopy_document).  A fixed
# layout keeps the cost of a batch nearly independent of the seed, so runs on
# different seeds compare.


def _ruth_decide(rng):
    # Z/3 has no nontrivial rational character, so its documents are all
    # unimodular; the sign character lives on the Z/2 isotropy of the
    # two-object groupoid.  The two shapes are sized to cost about the same,
    # so that the median request is not an edge between two groups.
    z3, z2 = GROUPS["Z3"](), GROUPS["Z2"]()
    docs = [
        homotopy_document(rng, f"decide-{k}", z3, 1, [2, 1, 2, 1], [0, 1, 2, 0], True)
        for k in range(4)
    ]
    docs += [
        homotopy_document(rng, f"decide-{k}", z2, 2, [2, 2, 1], [0, 1], k == 7)
        for k in range(4, 8)
    ]
    return docs, [Request(i, "modular-class") for i in range(len(docs))]


def _ruth_construct(rng):
    # Every non-unit arrow sits in at least two composable pairs and one null
    # homotopy costs more than one replacement, so certificates outweigh
    # replacements; many small degrees keep the two closest.  One object
    # makes each berezinian/replace call decompose the same fiber twice.
    z2 = GROUPS["Z2"]()
    docs = [
        homotopy_document(
            rng, f"construct-{k}", z2, 1, [3, 1, 3, 1, 3, 1, 3, 1], [1, 3, 5], k % 2 == 0
        )
        for k in range(10)
    ]
    requests = []
    for i, doc in enumerate(docs):
        requests.append(Request(i, "homotopy-check"))
        units = set(doc.gpd.identity.values())
        for a, _, _ in doc.gpd.arrows:
            if a not in units:
                requests.append(Request(i, "berezinian", a))
                requests.append(Request(i, "replace", a))
    return docs, requests


def _groupoid_wide(rng):
    # Two equally heavy vector documents hold the tail, so that it does not
    # hop between documents as the number of passes in a run changes.
    s3 = GROUPS["S3"]()
    docs = [
        vector_document(rng, "wide-0", s3, 5, ["std", "sign"], True),
        vector_document(rng, "wide-1", s3, 5, ["perm"], False),
        vector_document(rng, "wide-2", s3, 4, ["std"], False),
        line_document(rng, "wide-3", s3, 5, False),
        line_document(rng, "wide-4", s3, 4, True),
        cochain_document(rng, "wide-5", s3, 5, True),
        cochain_document(rng, "wide-6", s3, 4, False),
    ]
    commands = {"vector": "modular-class", "line": "modular-class", "cochain": "cohomology"}
    return docs, [Request(i, commands[d.kind]) for i, d in enumerate(docs)]


WORKLOADS = {
    "ruth-decide": _ruth_decide,
    "ruth-construct": _ruth_construct,
    "groupoid-wide": _groupoid_wide,
}


def build(workload: str, seed: int):
    """The documents and requests of one workload; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng)
