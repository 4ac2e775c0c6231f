"""Dense-matrix ground truth for small circuits.

Builds explicit 2^n x 2^n unitaries from gate circuits, rotation lists,
and canonical forms, and checks equivalence up to global phase via the
normalized overlap |tr(U^dag V)| / 2^n = |<U, V>| / 2^n.  Hard guard at
n <= 10; anything larger must be validated structurally instead.

Qubit 0 is the most significant bit of a basis index (the leftmost
Kronecker factor).  No gate or rotation is applied by a matrix product.
A signed Pauli string is a permutation times a phase: P|k> =
d[k] |k ^ xm> with xm the x-bit mask and d[k] = i^(e + #Y) (-1)^|k & zm|
(the symplectic picture of Aaronson and Gottesman, quant-ph/0406196).
So every gate and rotation is one factor (a, b, p) acting on rows,
(F m)[k] = a[k] m[k] + b[k] m[p[k]], of one of three kinds: diagonal
(b = 0: S, Sdg, T, Tdg, Z, CZ and rotations about Z-only axes),
monomial (a = 0: X, Y, CNOT and every pi/2 rotation, which is exactly
-i P), or mixing (H and the pi/4 and pi/8 rotations about an axis with
an X bit, whose a is real).

A build holds its matrix as m[k] = e[k] u[src[k]]: a dense u under a
pending monomial, a phase vector e and a row permutation src.  Diagonal
and monomial factors update only e and src, in O(2^n); a mixing factor
rewrites u in place under the same frame, in O(4^n); the frame is
applied to u once, at the end.  A build of G factors of which M mix
therefore costs O(M 4^n + G 2^n), against O(G 4^n) for a dense pass
per factor and O(G 8^n) for matrix products.

`verify_canonical_form` builds the circuit unitary U, the pi/8 product
W and the trace unitary V once each, so one verification makes a single
2^n x 2^n matrix product, V @ W.  Both of its checks are overlaps held
against 1 - tol, with tol in (0, 1): the fidelity |<U, V W>| / 2^n, and
for each of the 2n generators g with tableau image T(g) the agreement
Re<V, g V T(g)> / 2^n.  V is Clifford, so V^dag g V is a signed Pauli,
and the agreement is the normalized trace of its product with T(g):
1 if the image is right, -1 if only its sign is wrong and 0 otherwise.
The real part keeps the sign a modulus would lose, and V's global phase
cancels.  g V T(g) is V with its rows and columns permuted and scaled
by phases, so each generator costs two gathers and one reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .canonical import CanonicalForm
from .circuits import Gate, GateCircuit, PauliRotation
from .pauli import PauliString

MAX_ORACLE_QUBITS = 10
DEFAULT_TOL = 1e-9

_GATE_1Q = {
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
}


def _check_size(n: int):
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(f"dense oracle limited to n <= {MAX_ORACLE_QUBITS}, got {n}")


def _check_tol(tol: float):
    # an overlap is at most 1, so a tol of 1 or more would pass anything,
    # as would NaN (`x < 1 - nan` is false); 0 or less fails on rounding
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tol!r}")


@lru_cache(maxsize=None)
def _basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices 0..2^n-1 and their popcount parities (cached, read-only)."""
    parity = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        parity = np.concatenate([parity, parity ^ 1])
    idx = np.arange(1 << n)
    idx.flags.writeable = parity.flags.writeable = False
    return idx, parity


def _index_mask(bits: int, n: int) -> int:
    """Basis-index mask of a per-qubit bit vector (qubit q is bit n-1-q)."""
    return int(f"{bits:0{n}b}"[::-1], 2)


def _pauli_columns(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, d) with P = sum_k d[k] |perm[k]><k|; perm is an involution."""
    idx, parity = _basis(p.n)
    zm = _index_mask(p.z, p.n)
    coefficient = 1j ** ((p.phase + (p.x & p.z).bit_count()) % 4)
    d = coefficient * (1 - 2 * parity[idx & zm])
    return idx ^ _index_mask(p.x, p.n), d


def _gate_factor(gate: Gate, n: int):
    """The (a, b, p) factor of one gate of an n-qubit circuit.

    A diagonal factor is (a, None, None), a monomial one (None, b, p) and
    a mixing one (a, b, p) with a real.
    """
    idx, _ = _basis(n)
    if gate.kind in _GATE_1Q:
        shift = n - 1 - gate.qubits[0]
        g, bit = _GATE_1Q[gate.kind], idx >> shift & 1
        a, b = g[bit, bit], g[bit, bit ^ 1]
        if not b.any():
            return a, None, None
        p = idx ^ (1 << shift)
        if not a.any():
            return None, b, p
        return a.real, b, p  # only h mixes, and its diagonal is +-1/sqrt(2)
    hi, lo = (n - 1 - q for q in gate.qubits)
    if gate.kind == "cnot":
        return None, np.ones(idx.size, dtype=complex), idx ^ ((idx >> hi & 1) << lo)
    if gate.kind == "cz":
        return 1 - 2 * (idx >> hi & idx >> lo & 1), None, None
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _rotation_factor(rot: PauliRotation):
    """The (a, b, p) factor of exp(-i*phi*P) = cos(phi) - i sin(phi) P."""
    perm, d = _pauli_columns(rot.axis)
    if rot.den == 2:
        # exactly -i*num*P: cos(pi/2) rounds to 6e-17, not 0, and a run of
        # such terms would shrink into subnormals, which are slow
        c, s = 0.0, float(rot.num)
    else:
        phi = rot.num * math.pi / rot.den
        c, s = math.cos(phi), math.sin(phi)
    b = -1j * s * d[perm]
    if not rot.axis.x:  # perm is the identity
        return c + b, None, None
    if rot.den == 2:
        return None, b, perm
    return np.full(perm.size, c), b, perm


def _mix(u: np.ndarray, buf: np.ndarray, a: np.ndarray, c: np.ndarray, g: np.ndarray):
    """u[j] <- a[j] u[j] + c[j] u[g[j]] in place, a real: a build's one O(4^n) step."""
    np.take(u, g, axis=0, out=buf, mode="clip")  # g is a permutation of the rows
    buf *= c[:, None]
    floats = u.view(np.float64)  # row j holds the real and imaginary parts
    floats *= a[:, None]
    u += buf


def _fold(factors, n: int) -> np.ndarray:
    """Product of (a, b, p) factors in time order (later factors on the left).

    The product is held as m = e[:, None] * u[src]; only mixing factors
    touch u.  With k = inv[j] the frame row that reads u row j, a mixing
    factor needs u'[j] = a[k] u[j] + b[k] e[p[k]] conj(e[k]) u[src[p[k]]].
    """
    dim = 1 << n
    idx, _ = _basis(n)
    e, src, inv = np.ones(dim, dtype=complex), idx, np.empty_like(idx)
    u, buf = np.eye(dim, dtype=complex), np.empty((dim, dim), dtype=complex)
    for a, b, p in factors:
        if b is None:
            e *= a
        elif a is None:
            e, src = b * e[p], src[p]
        else:
            # every phase has modulus 1, but rounding drifts it, one drift
            # per row of u; reset before u keeps any, and conj(e) is 1 / e
            e /= np.abs(e)
            inv[src] = idx
            pk = p[inv]
            _mix(u, buf, a[inv], b[inv] * e[pk] * e[inv].conj(), src[pk])
    # the frame applied once, into buf: a fresh 2^n x 2^n array costs more
    # than the arithmetic on it
    e /= np.abs(e)
    np.take(u, src, axis=0, out=buf, mode="clip")
    buf *= e[:, None]
    return buf


# A build keeps the factors of at most this many rows' worth of distinct
# items: 512 factors at n = 7, 64 at n = 10, and at most 32 bytes a row, so
# 2 MiB.  A long list of distinct rotations, such as a deep circuit's pi/8
# list, then cannot make a build's memory grow with its length.  Items do
# repeat: in the 48 seeded n = 7, 100-gate circuits of bench's verify-small
# (seeds 1-3), 37-38% of gates, 57-58% of Clifford-trace rotations and
# 23-28% of pi/8 rotations repeat an earlier item, and verify_canonical_form
# took a median of 7.6 ms a call with the memo and 8.7 ms without it (12
# alternating runs over all 48, 2-core host).
_MEMO_ROWS = 1 << 16


def _memoized(build, items, n: int):
    """build(item) for each item; the first distinct items, up to the row
    budget, are built once and kept, any later new item each time it comes."""
    memo, room = {}, _MEMO_ROWS >> n
    for item in items:
        factor = memo.get(item)
        if factor is None:
            factor = build(item)
            if len(memo) < room:
                memo[item] = factor
        yield factor


def unitary_of_gates(gc: GateCircuit) -> np.ndarray:
    """Product of gate matrices in time order (later gates on the left)."""
    _check_size(gc.n)
    return _fold(_memoized(lambda g: _gate_factor(g, gc.n), gc.gates, gc.n), gc.n)


def unitary_of_rotations(rotations, n: int) -> np.ndarray:
    """Ordered product of rotation matrices (time order, later on the left)."""
    _check_size(n)

    def build(rot):
        if rot.axis.n != n:
            raise ValueError("rotation axis length does not match n")
        return _rotation_factor(rot)

    return _fold(_memoized(build, rotations, n), n)


def overlap(u: np.ndarray, v: np.ndarray) -> float:
    """|tr(U^dag V)| / dim: 1 iff U and V agree up to global phase."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(abs(np.vdot(u, v)) / u.shape[0])


def equivalent_up_to_phase(
    u: np.ndarray, v: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """True iff |tr(U^dag V)| / dim >= 1 - tol, for tol in (0, 1)."""
    _check_tol(tol)
    return overlap(u, v) >= 1 - tol


@dataclass(frozen=True)
class Verdict:
    """Outcome of `verify_canonical_form`; truthy iff the form passed."""

    fidelity: float
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_canonical_form(
    gc: GateCircuit, cf: CanonicalForm, tol: float = DEFAULT_TOL
) -> Verdict:
    """Check a canonical form against the original circuit.

    One rule, for tol in (0, 1): a check passes iff its overlap is at
    least 1 - tol.  (1) The fidelity |<U, V W>| / 2^n of the original
    unitary U against the pi/8 prefix W followed by the Clifford trace
    V.  (2) For each generator g, the agreement Re<V, g V T(g)> / 2^n
    of its tableau image T(g): with V^dag g V the image the trace gives,
    it is 1 if T(g) equals it, sign included, -1 if only the sign
    differs and 0 if it is another Pauli.  The fidelity is reported.
    """
    _check_tol(tol)
    if gc.n != cf.n:
        raise ValueError("qubit count mismatch between circuit and canonical form")
    _check_size(gc.n)
    original = unitary_of_gates(gc)
    w = unitary_of_rotations(cf.pi8, cf.n)
    v = unitary_of_rotations(cf.clifford_trace, cf.n)
    fidelity = overlap(original, v @ w)
    if fidelity < 1 - tol:
        return Verdict(fidelity, False)
    del original, w  # the tableau check's buffers take their memory
    t, dim = cf.tableau, v.shape[0]
    v_conj, rows, gvt = v.conj(), np.empty_like(v), np.empty_like(v)
    for q in range(cf.n):
        for letter, image in (("X", t.x_images[q]), ("Z", t.z_images[q])):
            # (g V T(g))[i, j] = dg[pg[i]] V[pg[i], pt[j]] dt[j]; every
            # index is idx ^ mask < 2^n, so 'clip' clips nothing, and the
            # default 'raise' would copy through a buffer to guard `out`
            pg, dg = _pauli_columns(PauliString.single(cf.n, q, letter))
            pt, dt = _pauli_columns(image)
            np.take(v, pg, axis=0, out=rows, mode="clip")
            np.take(rows, pt, axis=1, out=gvt, mode="clip")
            gvt *= v_conj
            if (dg[pg] @ (gvt @ dt)).real / dim < 1 - tol:
                return Verdict(fidelity, False)
    return Verdict(fidelity, True)
