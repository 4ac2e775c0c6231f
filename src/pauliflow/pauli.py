"""Exact symplectic algebra for signed n-qubit Pauli operators.

An n-qubit Pauli operator is stored as a pair of length-n bit vectors
(packed into Python integers, bit q = qubit q) plus a global phase
exponent e, so that the operator is

    i^e * P(x_0, z_0) (x) P(x_1, z_1) (x) ... (x) P(x_{n-1}, z_{n-1})

with the single-qubit encoding

    P(0, 0) = I,   P(1, 0) = X,   P(0, 1) = Z,   P(1, 1) = Y.

The i*XZ bookkeeping of Y is folded into the phase exponent, which
makes products exact: multiplying two Pauli strings only ever produces
another Pauli string times a power of i.  Operators with e in {0, 2}
are Hermitian (overall sign +1 or -1); those are the only ones exposed
as rotation axes or stabilizer generators, but intermediate products
may transiently carry e in {1, 3}.

Commutation is a phase-free property: a and b commute iff the
symplectic inner product sum_q (a.x_q * b.z_q + a.z_q * b.x_q) is even.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

_LETTER_FOR_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_FOR_LETTER = {v: k for k, v in _LETTER_FOR_BITS.items()}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
# Whole-label rendering and parsing: a qubit's letter is "IXZY"[x + 2z].
_LETTER_FOR_DIGIT = str.maketrans("0123", "IXZY")
_X_BIT_FOR_LETTER = str.maketrans("IXZY", "0101")
_Z_BIT_FOR_LETTER = str.maketrans("IXZY", "0011")
_DROP_LETTERS = str.maketrans("", "", "IXZY")


@dataclass(frozen=True)
class PauliString:
    """Signed Pauli operator in symplectic (x bits, z bits, phase) form."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        mask = (1 << self.n) - 1
        if not 0 <= self.x <= mask or not 0 <= self.z <= mask:
            raise ValueError("bit vectors exceed qubit count")
        if self.phase not in (0, 1, 2, 3):
            raise ValueError(f"phase exponent must be in 0..3, got {self.phase}")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """One non-identity letter on `qubit`, identity elsewhere."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        xb, zb = _BITS_FOR_LETTER[letter.upper()]
        return cls(n, xb << qubit, zb << qubit)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse text like "XZI", "+YY" or "-ZIZ" (qubit 0 leftmost)."""
        text = label.strip()
        phase = 0
        if text.startswith("+"):
            text = text[1:]
        elif text.startswith("-"):
            phase = 2
            text = text[1:]
        if not text:
            raise ValueError(f"empty Pauli label {label!r}")
        letters = text.upper()
        if letters.translate(_DROP_LETTERS):
            ch = next(ch for ch in text if ch.upper() not in _BITS_FOR_LETTER)
            raise ValueError(f"invalid Pauli letter {ch!r} in {label!r}")
        # qubit 0 is the leftmost letter and bit 0 of the masks
        letters = letters[::-1]
        x = int(letters.translate(_X_BIT_FOR_LETTER), 2)
        z = int(letters.translate(_Z_BIT_FOR_LETTER), 2)
        return cls(len(text), x, z, phase)

    # -- rendering -----------------------------------------------------

    def letter_at(self, qubit: int) -> str:
        return _LETTER_FOR_BITS[(self.x >> qubit & 1, self.z >> qubit & 1)]

    def label(self) -> str:
        # read as hex, the binary digits of x and z put qubit q's bits in
        # hex digit q, so x + 2z has one digit x_q + 2 z_q per qubit
        digits = int(f"{self.x:b}", 16) + 2 * int(f"{self.z:b}", 16)
        body = f"{digits:0{self.n}x}"[::-1].translate(_LETTER_FOR_DIGIT)
        return _PHASE_PREFIX[self.phase] + body

    def __str__(self) -> str:
        return self.label()

    # -- algebra --------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        return PauliString(self.n, *raw_product((self.x, self.z, self.phase),
                                                (other.x, other.z, other.phase)))

    def commutes(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        overlap = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return overlap % 2 == 0

    def anticommutes(self, other: "PauliString") -> bool:
        return not self.commutes(other)

    def weight(self) -> int:
        """Number of qubits with a non-identity letter."""
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def is_hermitian(self) -> bool:
        return self.phase in (0, 2)

    def negated(self) -> "PauliString":
        return PauliString(self.n, self.x, self.z, (self.phase + 2) % 4)

    def unsigned(self) -> "PauliString":
        """Same letters with phase reset to +1."""
        return PauliString(self.n, self.x, self.z, 0)


def raw_product(a: tuple, b: tuple) -> tuple:
    """Phase-exact product of two Paulis given as raw (x, z, phase) triples."""
    x1, z1, p1 = a
    x2, z2, p2 = b
    x3, z3 = x1 ^ x2, z1 ^ z2
    # Per-qubit phase of P(x1,z1)*P(x2,z2) = i^g * P(x1^x2, z1^z2)
    # with g = x1*z1 + x2*z2 + 2*z1*x2 - x3*z3, summed via popcounts.
    return x3, z3, (p1 + p2 + (x1 & z1).bit_count() + (x2 & z2).bit_count()
                    + 2 * (z1 & x2).bit_count() - (x3 & z3).bit_count()) % 4


def set_bits(v: int) -> Iterator[int]:
    """Indices of the set bits of v, lowest first."""
    while v:
        low = v & -v
        yield low.bit_length() - 1
        v ^= low


def anticommutation_rows(
    ps: Sequence[PauliString], qs: Sequence[PauliString]
) -> list[int]:
    """Bitmask rows: bit j of entry i set iff ps[i] anticommutes with qs[j].

    The symplectic product over GF(2) on column bitsets: bit j of
    xcol[q] (zcol[q]) is set iff qs[j] has an x (z) bit on qubit q, and
    ps[i] anticommutes with the XOR of zcol[q] over its x bits and
    xcol[q] over its z bits.  Either list may be empty.

    The XORs are read from tables over blocks of four qubits (the "four
    Russians" method): entry k of a block's table is the XOR of the
    columns of the block's qubits that k's bits select, so a row costs
    two lookups per block whatever its weight.
    """
    n = (ps or qs)[0].n if ps or qs else 0
    for p in (*ps, *qs):
        if p.n != n:
            raise ValueError(f"qubit count mismatch: {p.n} vs {n}")
    if not qs:
        return [0] * len(ps)

    def columns(masks):  # the masks' binary digits transposed, masks[0]'s lowest
        digits = zip(*(format(mask, f"0{n}b") for mask in reversed(masks)))
        return [int("".join(col), 2) for col in digits][::-1]

    xcol, zcol = columns([p.x for p in qs]), columns([p.z for p in qs])
    tables = []
    for start in range(0, n, 4):
        pair = []
        for cols in (zcol, xcol):  # an x bit selects a z column, and back
            table = [0]
            for col in cols[start:start + 4]:
                table += [entry ^ col for entry in table]
            pair.append(table)
        tables.append(pair)
    rows = []
    for p in ps:
        x, z, anti = p.x, p.z, 0
        for by_x, by_z in tables:
            anti ^= by_x[x & 15] ^ by_z[z & 15]
            x >>= 4
            z >>= 4
        rows.append(anti)
    return rows


def merged_rotation_axis(p: PauliString, q: PauliString) -> PauliString:
    """The Hermitian Pauli i*p*q for anticommuting Hermitian p, q.

    Raises if p and q commute, since i*p*q would then be anti-Hermitian.
    """
    if not (p.is_hermitian() and q.is_hermitian()):
        raise ValueError("merged axis requires Hermitian operands")
    if p.commutes(q):
        raise ValueError("axes commute; i*p*q would not be Hermitian")
    prod = p * q
    merged = PauliString(prod.n, prod.x, prod.z, (prod.phase + 1) % 4)
    assert merged.is_hermitian()
    return merged


# -- GF(2) linear algebra over symplectic rows --------------------------


def symplectic_vector(p: PauliString) -> int:
    """2n-bit row (x << n) | z; phase is dropped."""
    return (p.x << p.n) | p.z


def gf2_pivots(rows: Iterable[int]) -> dict[int, int]:
    """Echelonize rows over GF(2); pivot = lowest set bit, lowest index first.

    Returns a map from pivot bit to the reduced row owning that pivot.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        v = row
        while v:
            low = v & -v
            if low in pivots:
                v ^= pivots[low]
            else:
                pivots[low] = v
                break
    return pivots


def gf2_reduce(pivots: dict[int, int], v: int) -> int:
    """Residual of v after elimination against the pivot rows."""
    while v:
        low = v & -v
        if low not in pivots:
            break
        v ^= pivots[low]
    return v


def gf2_rank(rows: Iterable[int]) -> int:
    return len(gf2_pivots(rows))


def independent(paulis: Sequence[PauliString]) -> bool:
    """True iff no operator is a product of the others (phases ignored).

    Equivalent to the symplectic binary matrix having full row rank.
    """
    if not paulis:
        return True
    n = paulis[0].n
    for p in paulis:
        if p.n != n:
            raise ValueError("mixed qubit counts in generator set")
    rows = [symplectic_vector(p) for p in paulis]
    return gf2_rank(rows) == len(rows)
