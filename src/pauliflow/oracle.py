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
pending monomial, a phase vector e and a row permutation src.  First,
each run of consecutive factors whose permutation is the XOR by one
mask (diagonal factors join any run) is multiplied out into one factor,
in O(2^n) a factor.  Diagonal and monomial factors update only e and
src, in O(2^n), and so does a run whose product has at most one nonzero
entry per row (a cnot's three rotations, H H, or H T H with the T on
another qubit).  A run that mixes rewrites u in place under the same
frame, in O(4^n); the frame is applied to u once, at the end.  A build
of G factors in R runs that mix therefore costs O(R 4^n + G 2^n),
against O(G 4^n) for a dense pass per factor and O(G 8^n) for matrix
products (the cost model of Burgholzer and Wille, arXiv:2004.08420:
the dense passes, not the gates, set the cost).

`verify_canonical_form` builds the circuit unitary U, the pi/8 product
W and the Clifford unitary V once each, V from the circuit's Clifford
gates (every gate but t and tdg, in order), not from the payload's
trace; so one verification makes a single 2^n x 2^n matrix product,
V @ W.  The fidelity |<U, V W>| / 2^n is held against 1 - tol, with tol
in (0, 1).  The tableau is checked once, against V (the reader has
checked its bases against the trace): each of the 2n generators g with
image T(g) must satisfy Re<V e_k, g V T(g) e_k> >= 1 - tol at the n + 1
basis columns k in {0, 2^0, ..., 2^(n-1)}.  V is Clifford, so
R = V^dag g V T(g) is a Pauli with a phase, and <k|R|k> is 1 at every
k iff R = I, which is iff T(g) = V^dag g V; otherwise its real part is
at most 0 at one of those k (see `_images_hold`).  Judged on n + 1
columns, all 2n images cost one batched O(n^2 2^n) gather and reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .canonical import CanonicalForm, CliffordTableau
from .circuits import PI8_NUM, Gate, GateCircuit, PauliRotation
from .pauli import PauliString

MAX_ORACLE_QUBITS = 10
DEFAULT_TOL = 1e-9
_ROOT_HALF = math.sqrt(0.5)

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
# each one-qubit gate's diagonal and off-diagonal, row by row
_GATE_ROWS = {
    kind: (g.diagonal(), np.fliplr(g).diagonal()) for kind, g in _GATE_1Q.items()
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
    """Basis indices 0..2^n-1, and at each per-qubit bit vector its
    basis-index mask, qubit q being index bit n-1-q (cached, read-only)."""
    idx = np.arange(1 << n)
    masks = np.zeros_like(idx)
    for q in range(n):
        masks |= (idx >> q & 1) << (n - 1 - q)
    idx.flags.writeable = masks.flags.writeable = False
    return idx, masks


def _signs(cols: np.ndarray) -> np.ndarray:
    """(-1)^|c| for each c of cols, as int8, in place of the popcounts
    (uint8 would wrap at 1 - 2)."""
    signs = np.bitwise_count(cols).view(np.int8)
    signs &= 1
    signs *= -2
    signs += 1
    return signs


def _coefficient(p: PauliString) -> complex:
    """d[k] / (-1)^|k & zm| for P = sum_k d[k] |k ^ xm><k|."""
    return 1j ** ((p.phase + (p.x & p.z).bit_count()) % 4)


def _pauli_columns(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(perm, d) with P = sum_k d[k] |perm[k]><k|; perm is an involution."""
    idx, masks = _basis(p.n)
    return idx ^ masks[p.x], _coefficient(p) * _signs(idx & masks[p.z])


# A factor (a, b, p) acts on rows as (F m)[k] = a[k] m[k] + b[k] m[p[k]].
# p is an int m for the permutation k -> k ^ m (0 with b None: a diagonal
# factor), or an index array for any other permutation (the cnot).  An a
# of None is zero, and a float the same on every row.


def _gate_factor(gate: Gate, n: int):
    """The factor of one gate of an n-qubit circuit."""
    idx, _ = _basis(n)
    if gate.kind in _GATE_1Q:
        shift = n - 1 - gate.qubits[0]
        (diagonal, off), bit = _GATE_ROWS[gate.kind], idx >> shift & 1
        a, b = diagonal[bit], off[bit]
        if not off.any():
            return a, None, 0
        if not diagonal.any():
            return None, b, 1 << shift
        return a.real, b, 1 << shift  # only h mixes, and its diagonal is +-1/sqrt(2)
    hi, lo = (n - 1 - q for q in gate.qubits)
    if gate.kind == "cnot":
        return None, np.ones(idx.size, dtype=complex), idx ^ ((idx >> hi & 1) << lo)
    if gate.kind == "cz":
        return 1 - 2 * (idx >> hi & idx >> lo & 1), None, 0
    raise ValueError(f"unknown gate kind {gate.kind!r}")


def _cos_sin(rot: PauliRotation) -> tuple[float, float]:
    """cos(phi) and sin(phi) of the rotation exp(-i*phi*P)."""
    if rot.den == 2:
        # exactly -i*num*P: cos(pi/2) rounds to 6e-17, not 0, and a run of
        # such terms would shrink into subnormals, which are slow
        return 0.0, float(rot.num)
    phi = rot.num * math.pi / rot.den
    if rot.den == 4:
        # one value for both: cos(pi/4) and sin(pi/4) differ in the last
        # bit, and a cnot's three rotations would then leave 2e-16 where
        # their product has a zero
        return math.copysign(_ROOT_HALF, math.cos(phi)), math.copysign(
            _ROOT_HALF, math.sin(phi))
    return math.cos(phi), math.sin(phi)


def _rotation_factors(rotations, n: int) -> list:
    """The factors of exp(-i*phi*P) = cos(phi) - i sin(phi) P for each of
    the rotations, built in one K x 2^n pass: b[k] = -i sin(phi) d[k ^ xm]."""
    idx, masks = _basis(n)
    xm = masks[[rot.axis.x for rot in rotations]]
    zm = masks[[rot.axis.z for rot in rotations]]
    cos_sin = [_cos_sin(rot) for rot in rotations]
    weights = np.array([-1j * s * _coefficient(rot.axis)
                        for rot, (_, s) in zip(rotations, cos_sin)])
    # (k ^ xm) & zm for each rotation and basis index k, in 16 bits (n <= 10)
    cols = idx.astype(np.uint16) ^ xm.astype(np.uint16)[:, None]
    cols &= zm.astype(np.uint16)[:, None]
    signs = _signs(cols)
    del cols
    b = weights[:, None] * signs
    factors = []
    for rot, row, (c, _), mask in zip(rotations, b, cos_sin, xm.tolist()):
        if not mask:  # a Z-only axis: P is diagonal, and so is c + b
            row += c
            factors.append((row, None, 0))
        else:
            factors.append((None if rot.den == 2 else c, row, mask))
    return factors


def _then(a1, b1, a2, b2, p):
    """The product of (a2, b2, p) after (a1, b1, p), p an involution; b1
    and b2 are arrays, a1 and a2 may be None or a float (see the factors)."""
    a = b2 * b1[p]
    if a1 is None:
        return a, (np.zeros_like(a) if a2 is None else a2 * b1)
    b = b2 * (a1 if np.ndim(a1) == 0 else a1[p])
    if a2 is not None:
        a += a2 * a1
        b += a2 * b1
    return a, b


def _settled(a, b, p, idx):
    """A run's product (a, b, p) as factors of the kinds `_fold` takes.

    With at most one nonzero entry in each row it is a monomial; the test
    is exact, so what rounding leaves of a cancelled entry still mixes.
    Otherwise it mixes, and a complex a's phase w comes out as a diagonal
    factor after (|a|, b conj(w), p): `_mix` scales rows by a real a.
    """
    if a is None:
        return [(None, b, p)]
    keep = a != 0
    if not (keep & (b != 0)).any():
        return [(None, np.where(keep, a, b), np.where(keep, idx, p))]
    if np.ndim(a) == 0:
        return [(np.full(b.shape, a), b, p)]
    if not np.iscomplexobj(a):
        return [(a, b, p)]
    r = np.abs(a)
    w = np.divide(a, r, out=np.ones_like(a), where=keep)
    return [(r, b * w.conj(), p), (w, None, None)]


def _runs(factors, idx):
    """The factors, each run of them multiplied out first.

    Consecutive factors that permute rows by one XOR mask form a run, and
    diagonal factors join any run.  For p an involution, (a2, b2, p) after
    (a1, b1, p) is (a2 a1 + b2 b1[p], a2 b1 + b2 a1[p], p): a run costs
    O(2^n) a factor, and makes at most one O(4^n) pass however long it
    is.  A factor with another permutation (the cnot) ends the run and
    comes out as it is, as does a diagonal factor that finds no run open.
    """
    a = b = None
    mask = 0  # of the open run; 0 while none is open
    for fa, fb, fp in factors:
        if fb is None:
            if not mask:
                yield fa, None, None
                continue
            a, b = None if a is None else fa * a, fa * b
        elif isinstance(fp, int) and fp == mask:
            a, b = _then(a, b, fa, fb, idx ^ mask)
        else:
            if mask:
                yield from _settled(a, b, idx ^ mask, idx)
            if isinstance(fp, int):
                a, b, mask = fa, fb, fp
            else:
                mask = 0
                yield fa, fb, fp
    if mask:
        yield from _settled(a, b, idx ^ mask, idx)


def _mix(u: np.ndarray, buf: np.ndarray, a: np.ndarray, c: np.ndarray, g: np.ndarray):
    """u[j] <- a[j] u[j] + c[j] u[g[j]] in place, a real: a build's one O(4^n) step."""
    np.take(u, g, axis=0, out=buf, mode="clip")  # g is a permutation of the rows
    buf *= c[:, None]
    floats = u.view(np.float64)  # row j holds the real and imaginary parts
    floats *= a[:, None]
    u += buf


def _fold(factors, n: int) -> np.ndarray:
    """Product of factors in time order (later factors on the left).

    The product is held as m = e[:, None] * u[src]; only the runs of
    factors that mix touch u (see `_runs`).  With k = inv[j] the frame row
    that reads u row j, a mixing factor needs
    u'[j] = a[k] u[j] + b[k] e[p[k]] conj(e[k]) u[src[p[k]]].
    """
    dim = 1 << n
    idx, _ = _basis(n)
    e, src, inv = np.ones(dim, dtype=complex), idx, np.empty_like(idx)
    u, buf = np.eye(dim, dtype=complex), np.empty((dim, dim), dtype=complex)
    for a, b, p in _runs(factors, idx):
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


# A build holds the factors of at most this many rows' worth of distinct
# items, at most 24 bytes a row (a rotation about an axis with an X bit
# keeps only b, its a being one float), so 1.5 MiB.  It takes its items in
# segments of at most half that many rows' worth of distinct items, 256 at
# n = 7 and 32 at n = 10, builds each segment's in one batch and drops
# them once the segment is used; while the next segment is built, a run
# left open on the last factor still holds the one before.  So a long list
# of distinct rotations, such as a deep circuit's pi/8 list, cannot make a
# build's memory grow with its length.  Items do repeat, and each distinct
# item of a segment is built once: in the 48 seeded n = 7, 100-gate
# circuits of bench's verify-small (seeds 1-3), 37-38% of gates (U's build),
# 35-36% of Clifford gates (V's) and 23-28% of pi/8 rotations (W's) repeat
# an earlier item, and every build there is one segment.
_MEMO_ROWS = 1 << 16


def _memoized(build, items, n: int):
    """The factor of each item in order, from build(distinct items)."""
    items, room, start = tuple(items), _MEMO_ROWS >> (n + 1), 0
    while start < len(items):
        slot, order = {}, []
        for item in islice(items, start, None):
            i = slot.get(item)
            if i is None:
                if len(slot) == room:
                    break
                i = slot[item] = len(slot)
            order.append(i)
        factors = build(list(slot))
        yield from map(factors.__getitem__, order)
        del factors  # before the next segment's are built
        start += len(order)


def unitary_of_gates(gc: GateCircuit) -> np.ndarray:
    """Product of gate matrices in time order (later gates on the left)."""
    _check_size(gc.n)

    def build(gates):
        return [_gate_factor(g, gc.n) for g in gates]

    return _fold(_memoized(build, gc.gates, gc.n), gc.n)


def unitary_of_rotations(rotations, n: int) -> np.ndarray:
    """Ordered product of rotation matrices (time order, later on the left)."""
    _check_size(n)

    def build(batch):
        if any(rot.axis.n != n for rot in batch):
            raise ValueError("rotation axis length does not match n")
        return _rotation_factors(batch, n)

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


def _images_hold(v: np.ndarray, tableau: CliffordTableau, tol: float) -> bool:
    """True iff each generator g's image T(g) passes, V being Clifford:
    Re<V e_k, g V T(g) e_k> >= 1 - tol at every k in {0, 2^0, ..., 2^(n-1)}.

    Why n + 1 columns suffice: R = V^dag g V T(g) is a product of two
    Hermitian Paulis, so R = c P for a Pauli P = X^a Z^b (basis-index
    masks a, b) and c in {1, -1, i, -i}, and <k|R|k> = c (-1)^|k & b|
    if a = 0, else 0.  If R = I every value is 1.  Otherwise a != 0 puts
    0 everywhere; c = +-i puts a real part 0 everywhere; c = -1 gives -1
    at k = 0; and c = 1 with b != 0 gives -1 at k = 2^j for a bit j of b.
    So the rule passes iff R = I, for every tol in (0, 1), which is the
    verdict of the whole-matrix agreement Re tr(R) / 2^n >= 1 - tol.

    g is Hermitian, so the value is <g V e_k, V T(g) e_k>: X_q moves row
    i of V e_k to i ^ b_q and Z_q signs it by (-1)^|i & b_q|, b_q being
    qubit q's basis-index bit, and V T(g) e_k is d_t[k] V[:, k ^ x_t] for
    T(g)|k> = d_t[k] |k ^ x_t>.  One (2^n, 2n, n + 1) gather of V's
    columns serves all 2n images, reduced over the rows.
    """
    n = tableau.n
    idx, masks = _basis(n)
    bits = 1 << (n - 1 - np.arange(n))
    cols = np.concatenate(([0], bits))
    images = tableau.x_images + tableau.z_images
    image_x = masks[[p.x for p in images]]
    image_z = masks[[p.z for p in images]]
    # vt[i, g, c] = V[i, k_c ^ x_t] for g = X_0 .. X_(n-1), then Z_0 .. Z_(n-1)
    vt = np.take(v, (cols ^ image_x[:, None]).ravel(), axis=1)
    vt = vt.reshape(1 << n, 2 * n, n + 1)
    vk = v[:, cols].conj()
    values = np.concatenate((
        np.einsum("iqc,iqc->qc", vk[idx[:, None] ^ bits], vt[:, :n]),
        np.einsum("ic,iq,iqc->qc", vk, _signs(idx[:, None] & bits), vt[:, n:])))
    values *= np.array([_coefficient(p) for p in images])[:, None]
    values *= _signs(cols & image_z[:, None])
    return bool((values.real >= 1 - tol).all())


def verify_canonical_form(
    gc: GateCircuit, cf: CanonicalForm, tol: float = DEFAULT_TOL
) -> Verdict:
    """Check a canonical form against the original circuit.

    One rule, for tol in (0, 1): a check passes iff its value is at
    least 1 - tol.  (1) The fidelity |<U, V W>| / 2^n of the original
    unitary U against the pi/8 prefix W followed by V, the unitary of
    the circuit's Clifford gates in order.  (2) The tableau: each
    generator g's image T(g) must pass `_images_hold`, that is, equal
    V^dag g V, sign included.  The fidelity is reported.
    """
    _check_tol(tol)
    if gc.n != cf.n:
        raise ValueError("qubit count mismatch between circuit and canonical form")
    _check_size(gc.n)
    original = unitary_of_gates(gc)
    w = unitary_of_rotations(cf.pi8, cf.n)
    v = unitary_of_gates(GateCircuit(gc.n, tuple(
        g for g in gc.gates if g.kind not in PI8_NUM)))
    fidelity = overlap(original, v @ w)
    ok = fidelity >= 1 - tol and _images_hold(v, cf.tableau, tol)
    return Verdict(fidelity, ok)
