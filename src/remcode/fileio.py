"""Text formats for specs, messages, and codewords.

Spec files are JSON objects with fields p, m, reduction (null for prime
fields), moduli (coefficient lists, lowest degree first, field elements as
their integer encodings), and k.

Codeword files are a word's residue row, line oriented: `n=<n>` followed by
one line per symbol, the row's slice for it, so exactly deg(m_i) integers,
lowest degree first, zero padded.

Message files hold one polynomial in bracket form, e.g. `[0,1,1]`.
"""

from __future__ import annotations

import json
import re

from .code import CodeSpec, Codeword
from .errors import ParseError
from .field import Field
from .poly import Poly


# -- polynomials -------------------------------------------------------------

def parse_poly(field: Field, text: str) -> Poly:
    text = text.strip()
    if not re.fullmatch(r"\[\s*(-?\d+\s*(,\s*-?\d+\s*)*)?\]", text):
        raise ParseError(f"malformed polynomial literal {text!r}")
    inner = text[1:-1].strip()
    coeffs = [int(tok) for tok in inner.split(",")] if inner else []
    if any(not 0 <= c < field.q for c in coeffs):
        raise ParseError(f"coefficient out of range for {field!r} in {text!r}")
    return Poly(field, coeffs)


# -- specs --------------------------------------------------------------------

def spec_to_json(spec: CodeSpec) -> dict:
    return {
        "p": spec.field.p,
        "m": spec.field.m,
        "reduction": list(spec.field.reduction) if spec.field.reduction else None,
        "moduli": [list(m.coeffs) for m in spec.moduli],
        "k": spec.k,
    }


def _integer(value, what: str) -> int:
    """`value` when it is a JSON integer: a float or a bool (which Python
    counts as an int) is refused, not truncated."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _integers(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ParseError(f"{what} is not a coefficient list")
    return [_integer(c, f"{what} coefficient") for c in value]


def spec_from_json(obj: dict) -> CodeSpec:
    try:
        p, moduli, k = obj["p"], obj["moduli"], obj["k"]
    except KeyError as exc:
        raise ParseError(f"bad spec object: missing {exc}") from exc
    p, m, k = _integer(p, "p"), _integer(obj.get("m", 1), "m"), _integer(k, "k")
    reduction = obj.get("reduction")
    if reduction is not None:
        reduction = _integers(reduction, "reduction")
        if any(not 0 <= c < p for c in reduction):
            raise ParseError(f"reduction has coefficients outside 0..{p - 1}")
    if not isinstance(moduli, list):
        raise ParseError("moduli is not a list of coefficient lists")
    field = Field(p, m, reduction)
    polys = []
    for i, coeffs in enumerate(moduli):
        coeffs = _integers(coeffs, f"modulus {i}")
        if any(not 0 <= c < field.q for c in coeffs):
            raise ParseError(f"modulus {i} has coefficients outside {field!r}")
        polys.append(Poly(field, coeffs))
    return CodeSpec(field, polys, k)


def dumps_spec(spec: CodeSpec) -> str:
    return json.dumps(spec_to_json(spec), indent=2) + "\n"


def loads_spec(text: str) -> CodeSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(obj, dict):
        raise ParseError("spec file must hold a JSON object")
    return spec_from_json(obj)


# -- codewords ----------------------------------------------------------------

def dumps_codeword(word: Codeword) -> str:
    spec, row, o = word.spec, word.row, word.spec._offsets
    lines = [f"n={spec.n}"]
    lines += (" ".join(map(str, row[o[i]:o[i + 1]])) for i in range(spec.n))
    return "\n".join(lines) + "\n"


def loads_codeword(spec: CodeSpec, text: str) -> Codeword:
    lines = text.splitlines()
    if not lines or not lines[0].strip().startswith("n="):
        raise ParseError("codeword file must start with n=<count>", line=1)
    try:
        n = int(lines[0].strip()[2:])
    except ValueError as exc:
        raise ParseError(f"bad symbol count: {exc}", line=1) from exc
    if n != spec.n:
        raise ParseError(f"codeword has n={n}, spec has n={spec.n}", line=1)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != spec.n:
        raise ParseError(f"expected {spec.n} symbol lines, found {len(body)}")
    row = []
    for i, ln in enumerate(body):
        try:
            values = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ParseError(f"bad symbol value: {exc}", line=i + 2) from exc
        if len(values) != spec.degrees[i]:
            raise ParseError(
                f"symbol {i} needs exactly {spec.degrees[i]} values, got {len(values)}",
                line=i + 2)
        if any(not 0 <= v < spec.field.q for v in values):
            raise ParseError(f"symbol {i} value outside {spec.field!r}", line=i + 2)
        row += values
    return Codeword._of_row(spec, tuple(row))


# -- files ------------------------------------------------------------------------

def load_spec(path: str) -> CodeSpec:
    with open(path) as fh:
        return loads_spec(fh.read())


def save_spec(spec: CodeSpec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_spec(spec))


def load_codeword(spec: CodeSpec, path: str) -> Codeword:
    with open(path) as fh:
        return loads_codeword(spec, fh.read())


def save_codeword(word: Codeword, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_codeword(word))


def load_message(field: Field, path: str) -> Poly:
    with open(path) as fh:
        return parse_poly(field, fh.read())


def save_message(message: Poly, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(message.serialize() + "\n")
