from __future__ import annotations

import random

import pytest

from remcode.code import CodeSpec
from remcode.field import Field
from remcode.poly import Poly, irreducible_polys


def P(field: Field, *coeffs: int) -> Poly:
    return Poly(field, coeffs)


@pytest.fixture(scope="session")
def gf2() -> Field:
    return Field(2)


@pytest.fixture(scope="session")
def gf4() -> Field:
    return Field(2, 2, [1, 1, 1])


@pytest.fixture(scope="session")
def gf5() -> Field:
    return Field(5)


@pytest.fixture(scope="session")
def gf16() -> Field:
    return Field(2, 4, [1, 1, 0, 0, 1])


@pytest.fixture(scope="session")
def rs42(gf5) -> CodeSpec:
    """Classic length-4 dimension-2 code over GF(5): moduli x-1 .. x-4."""
    moduli = [P(gf5, (-b) % 5, 1) for b in (1, 2, 3, 4)]
    return CodeSpec(gf5, moduli, 2)


@pytest.fixture(scope="session")
def three_mod(gf2) -> CodeSpec:
    """Tiny GF(2) code with moduli x, x+1, x^2+x+1 and k = 2."""
    return CodeSpec(gf2, [P(gf2, 0, 1), P(gf2, 1, 1), P(gf2, 1, 1, 1)], 2)


@pytest.fixture(scope="session")
def ladder5(gf2) -> CodeSpec:
    """GF(2) code with irreducible moduli of degrees 1..5, k = 3."""
    moduli = [
        P(gf2, 0, 1),             # x
        P(gf2, 1, 1, 1),          # x^2+x+1
        P(gf2, 1, 1, 0, 1),       # x^3+x+1
        P(gf2, 1, 1, 0, 0, 1),    # x^4+x+1
        P(gf2, 1, 0, 1, 0, 0, 1), # x^5+x^2+1
    ]
    return CodeSpec(gf2, moduli, 3)


@pytest.fixture(scope="session")
def gf4_mixed(gf4) -> CodeSpec:
    """GF(4) code with three degree-1 and two degree-2 irreducible moduli, k = 3."""
    linear = [P(gf4, b, 1) for b in (0, 1, 2)]
    quads = list(irreducible_polys(gf4, 2))[:2]
    return CodeSpec(gf4, linear + quads, 3)


@pytest.fixture(scope="session")
def rs12_gf256() -> CodeSpec:
    """Reed-Solomon code of length 12 and k = 8 over GF(2^8): q^K = 2^64
    messages, more than a `range` can report as its length."""
    f = Field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])
    return CodeSpec(f, [Poly(f, [r, 1]) for r in range(12)], 8)


@pytest.fixture(scope="session")
def reducible_spec(gf2) -> CodeSpec:
    """GF(2) code whose first modulus x^2 is reducible; k = 1."""
    return CodeSpec(gf2, [P(gf2, 0, 0, 1), P(gf2, 1, 1), P(gf2, 1, 1, 1)], 1)


def random_message(rng: random.Random, spec: CodeSpec) -> Poly:
    return Poly.from_int(spec.field, rng.randrange(spec.field.q ** spec.K))


def random_preimage(rng: random.Random, spec: CodeSpec) -> Poly:
    return Poly.from_int(spec.field, rng.randrange(spec.field.q ** spec.N))


def random_spec(
    rng: random.Random,
    field: Field,
    n_range: tuple[int, int] = (2, 5),
    reducible: bool = False,
    shuffle: bool = True,
) -> CodeSpec:
    """Random valid spec: distinct irreducible moduli, optionally one composite."""
    pool = list(irreducible_polys(field, 1))
    pool += list(irreducible_polys(field, 2))[:6]
    if field.q <= 4:
        pool += list(irreducible_polys(field, 3))[:4]
    n = rng.randint(*n_range)
    n = min(n, len(pool))
    moduli = rng.sample(pool, n)
    if reducible and n >= 3:
        moduli = [moduli[0] * moduli[1]] + moduli[2:]
        n -= 1
    if shuffle:
        rng.shuffle(moduli)
    else:
        moduli.sort(key=lambda m: m.degree)
    return CodeSpec(field, moduli, rng.randint(1, n))
