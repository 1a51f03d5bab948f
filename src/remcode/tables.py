"""Irreducible-polynomial count tables.

For a field size q and each degree i up to a limit, tabulates the number
N_i of monic irreducible polynomials of degree i and the running total
S_i = sum of l * N_l for l <= i, which is the largest attainable total
modulus degree using only irreducible moduli of degree at most i.
"""

from __future__ import annotations

from .field import MAX_FIELD_SIZE, _prime_factors
from .poly import count_irreducible


def count_table(q: int, max_degree: int) -> list[tuple[int, int, int]]:
    """Rows (i, N_i, S_i) for i = 1..max_degree."""
    if q > MAX_FIELD_SIZE or len(_prime_factors(q)) != 1:
        raise ValueError(f"q must be a prime power <= {MAX_FIELD_SIZE}, got {q}")
    if max_degree < 1:
        raise ValueError("max degree must be >= 1")
    rows = []
    s = 0
    for i in range(1, max_degree + 1):
        n_i = count_irreducible(q, i)
        s += i * n_i
        rows.append((i, n_i, s))
    return rows


def render_text(q: int, rows: list[tuple[int, int, int]]) -> str:
    widths = [max(len(str(r[col])) for r in rows) for col in range(3)]
    widths[0] = max(widths[0], 2)
    lines = [f"monic irreducible polynomials over GF({q})"]
    header = "  ".join(("i".rjust(widths[0]), "N_i".rjust(widths[1]), "S_i".rjust(widths[2])))
    lines.append(header)
    for i, n_i, s_i in rows:
        lines.append("  ".join((str(i).rjust(widths[0]),
                                str(n_i).rjust(widths[1]),
                                str(s_i).rjust(widths[2]))))
    return "\n".join(lines) + "\n"


def render_csv(q: int, rows: list[tuple[int, int, int]]) -> str:
    lines = ["q,i,N_i,S_i"]
    for i, n_i, s_i in rows:
        lines.append(f"{q},{i},{n_i},{s_i}")
    return "\n".join(lines) + "\n"


def emit_tables(q: int, max_degree: int, fmt: str = "text") -> str:
    rows = count_table(q, max_degree)
    if fmt == "csv":
        return render_csv(q, rows)
    if fmt == "text":
        return render_text(q, rows)
    raise ValueError(f"unknown format {fmt!r}")
