"""Slow reference constructions that the closed forms are tested against.

``global_null_homotopy`` decides null-homotopy the general way: every
entry of every homotopy component is an unknown, all degrees together
form one linear system ``d^{i-1} H^i + H^{i+1} d^i = T^i``, and it is
solved exactly.  It needs no decomposition, so it is independent of the
boundary/harmonic/lift machinery it checks.
"""

from __future__ import annotations

from fractions import Fraction

from modclass import ChainMap, Homotopy, Matrix, solve


def global_null_homotopy(t: ChainMap) -> Homotopy | None:
    """A homotopy ``H`` with ``T = dH + Hd``, or None when the system is inconsistent."""
    src, tgt = t.source, t.target
    lo = min(src.d_min, tgt.d_min)
    hi = max(src.d_max, tgt.d_max)

    # Unknown blocks H^i, with their offsets into the global vector.
    shapes: dict[int, tuple[int, int]] = {}
    offsets: dict[int, int] = {}
    total = 0
    for i in range(lo, hi + 2):
        r, c = tgt.dim(i - 1), src.dim(i)
        if r and c:
            shapes[i] = (r, c)
            offsets[i] = total
            total += r * c

    rows: list[list[Fraction]] = []
    rhs: list[list[Fraction]] = []
    for i in range(lo, hi + 1):
        m, n = tgt.dim(i), src.dim(i)
        if m == 0 or n == 0:
            if not t.component(i).is_zero():
                return None
            continue
        d_out = tgt.differential(i - 1)
        d_in = src.differential(i)
        comp = t.component(i)
        for r in range(m):
            for c in range(n):
                coeff = [Fraction(0)] * total
                if i in shapes:
                    h_rows, h_cols = shapes[i]
                    for k in range(h_rows):
                        if d_out[r, k] != 0:
                            coeff[offsets[i] + k * h_cols + c] += d_out[r, k]
                if i + 1 in shapes:
                    h_rows, h_cols = shapes[i + 1]
                    for k in range(h_cols):
                        if d_in[k, c] != 0:
                            coeff[offsets[i + 1] + r * h_cols + k] += d_in[k, c]
                rows.append(coeff)
                rhs.append([comp[r, c]])

    if not rows:
        return Homotopy.zero(src, tgt)
    x = solve(Matrix(rows, cols=total), Matrix(rhs, cols=1))
    if x is None:
        return None
    comps = {}
    for i, (r, c) in shapes.items():
        off = offsets[i]
        comps[i] = Matrix(
            [[x[off + a * c + b, 0] for b in range(c)] for a in range(r)], cols=c
        )
    return Homotopy(src, tgt, comps)
