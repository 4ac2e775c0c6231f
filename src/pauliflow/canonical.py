"""Canonical form: ordered pi/8 rotations followed by a final Clifford.

Every Clifford rotation (pi/4 or pi/2) is commuted later in time past
each subsequent pi/8 rotation.  Crossing a Clifford with axis P and
angle theta rewrites a later rotation axis P' to

    P'                      if P and P' commute,
    exp(2i*theta*P) * P'    if they anticommute,

which for theta = +/-pi/4 is (+/-i)P*P' and for pi/2 is -P'.  The sign
convention (the earlier operation conjugates the later axis) is pinned
by the dense-oracle equivalence test, not by prose.

Moved Cliffords accumulate in time order into a trace C_1 ... C_k.  A
later axis crosses all of them, latest first, so it becomes F_k(P') with
F_k = f_1 o ... o f_k, where f_j is the crossing rule of C_j.  F_k is
kept as a running tableau: the 2n images F_k(X_q), F_k(Z_q), from which
any Pauli's image is the phase-exact product of the images over its
support.  Appending C_{k+1} with axis A gives F_{k+1} = F_k o f_{k+1},
and since F_k is an automorphism, F_k(i*A*g) = i*F_k(A)*F_k(g): the new
image of a generator g that anticommutes with A is the old image
crossed by a rotation about F_k(A) with the same angle, and every other
image is unchanged.  That is the stabilizer-tableau update of Aaronson
and Gottesman (quant-ph/0406196).  A weight-w axis touches at most 2w
images, so canonicalizing T pi/8 rotations and a trace of length |trace|
costs O(T*w + |trace|*w) Pauli products, independent of how long the
trace already is.

The final tableau maps each generator g in {X_i, Z_i} to V^dag g V where
V is the trace unitary, so measuring Z_q after the full circuit is the
same as measuring its tableau image after just the pi/8 prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import (
    SCHEMA_VERSION,
    GateCircuit,
    PauliRotation,
    RotationCircuit,
    gate_to_rotations,
    rotation_from_json,
    rotation_to_json,
)
from .pauli import PauliString, anticommutation_rows, merged_rotation_axis, set_bits


@dataclass(frozen=True)
class CliffordTableau:
    """Conjugation images of the X_i / Z_i generators under a Clifford."""

    n: int
    x_images: tuple[PauliString, ...]
    z_images: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.x_images) != self.n or len(self.z_images) != self.n:
            raise ValueError("tableau needs one image per generator")
        for img in self.x_images + self.z_images:
            if img.n != self.n or not img.is_hermitian():
                raise ValueError("tableau images must be Hermitian length-n Paulis")

    @classmethod
    def identity(cls, n: int) -> "CliffordTableau":
        xs = tuple(PauliString.single(n, q, "X") for q in range(n))
        zs = tuple(PauliString.single(n, q, "Z") for q in range(n))
        return cls(n, xs, zs)

    def validate(self):
        """Check that the images preserve the generator commutation structure."""
        images = self.x_images + self.z_images
        for a, row in enumerate(anticommutation_rows(images, images)):
            # X_i and Z_i anticommute; every other generator pair commutes
            bad = (row ^ (1 << (a + self.n) % (2 * self.n))) >> (a + 1)
            if bad:
                b = a + (bad & -bad).bit_length()
                raise ValueError(f"tableau images {a} and {b} break the "
                                 "commutation structure")


@dataclass(frozen=True)
class CanonicalForm:
    n: int
    pi8: tuple[PauliRotation, ...]
    clifford_trace: tuple[PauliRotation, ...]
    tableau: CliffordTableau
    measurement_bases: tuple[PauliString, ...]

    def __post_init__(self):
        if any(not r.is_pi8 for r in self.pi8):
            raise ValueError("pi8 section may only contain pi/8 rotations")
        if any(not r.is_clifford for r in self.clifford_trace):
            raise ValueError("trace may only contain Clifford rotations")


def to_rotation_circuit(gc: GateCircuit) -> RotationCircuit:
    """Concatenate the dictionary expansion of every gate, in time order."""
    rotations: list[PauliRotation] = []
    for gate in gc.gates:
        rotations.extend(gate_to_rotations(gate, gc.n))
    return RotationCircuit(gc.n, tuple(rotations))


def conjugate_axis(mover: PauliRotation, axis: PauliString) -> PauliString:
    """Image of `axis` when the Clifford rotation `mover` crosses it.

    Implements exp(2i*theta*P)*P' for anticommuting axes; a commuting
    axis is untouched.
    """
    if not mover.is_clifford:
        raise ValueError("only Clifford rotations may be moved across")
    if mover.axis.commutes(axis):
        return axis
    if mover.den == 2:
        return axis.negated()
    merged = merged_rotation_axis(mover.axis, axis)
    # i*P*P' for num = 1 mod 4, -i*P*P' for num = 3 mod 4
    return merged if mover.num % 4 == 1 else merged.negated()


def _image(xs, zs, p: PauliString) -> PauliString:
    """Image of p given the images xs[q], zs[q] of X_q and Z_q.

    Decomposes p per qubit as i^{x*z} X^x Z^z, substitutes the generator
    images, and multiplies with exact phase bookkeeping.  Only p's
    support is visited.
    """
    extra = (p.phase + (p.x & p.z).bit_count()) % 4
    acc = PauliString(p.n, 0, 0, extra)
    for q in set_bits(p.x | p.z):
        if p.x >> q & 1:
            acc = acc * xs[q]
        if p.z >> q & 1:
            acc = acc * zs[q]
    return acc


def tableau_conjugate(t: CliffordTableau, p: PauliString) -> PauliString:
    """Image of an arbitrary Hermitian Pauli under the tableau."""
    if p.n != t.n:
        raise ValueError(f"qubit count mismatch: {p.n} vs {t.n}")
    if not p.is_hermitian():
        raise ValueError("tableau conjugation expects a Hermitian operator")
    result = _image(t.x_images, t.z_images, p)
    assert result.is_hermitian(), "Clifford image of a Hermitian Pauli must be Hermitian"
    return result


def _identity_images(n: int) -> tuple[list[PauliString], list[PauliString]]:
    t = CliffordTableau.identity(n)
    return list(t.x_images), list(t.z_images)


def _append_clifford(xs, zs, mover: PauliRotation) -> None:
    """Update the running images in place from F to F o f_mover.

    X_q anticommutes with the mover's axis iff the axis has a z bit on
    q, Z_q iff it has an x bit there; only those images change.
    """
    axis = mover.axis
    image = PauliRotation(_image(xs, zs, axis), mover.num, mover.den)
    for q in set_bits(axis.z):
        xs[q] = conjugate_axis(image, xs[q])
    for q in set_bits(axis.x):
        zs[q] = conjugate_axis(image, zs[q])


def push_cliffords(rc: RotationCircuit) -> CanonicalForm:
    """Sweep all Clifford rotations to the end of the circuit.

    Walks the rotations in time order with a running tableau of the
    Cliffords seen so far.  Each arriving pi/8 axis is mapped through
    that tableau (one product per letter of the axis); each Clifford
    joins the trace and rewrites the at most 2w generator images its
    weight-w axis anticommutes with.  Total cost O(T*w + |trace|*w).
    The pi/8 count is preserved exactly.
    """
    xs, zs = _identity_images(rc.n)
    pi8: list[PauliRotation] = []
    trace: list[PauliRotation] = []
    for rot in rc.rotations:
        if rot.is_pi8:
            pi8.append(PauliRotation(_image(xs, zs, rot.axis), rot.num, 8))
        else:
            _append_clifford(xs, zs, rot)
            trace.append(rot)
    tableau = CliffordTableau(rc.n, tuple(xs), tuple(zs))
    bases = tuple(tableau.z_images)
    return CanonicalForm(rc.n, tuple(pi8), tuple(trace), tableau, bases)


def tableau_from_trace(n: int, trace: list[PauliRotation]) -> CliffordTableau:
    """Tableau of a Clifford trace, built with the same running update
    as `push_cliffords`: O(|trace|*w) for weight-w axes."""
    xs, zs = _identity_images(n)
    for mover in trace:
        _append_clifford(xs, zs, mover)
    return CliffordTableau(n, tuple(xs), tuple(zs))


def canonicalize(gc: GateCircuit) -> CanonicalForm:
    return push_cliffords(to_rotation_circuit(gc))


# -- JSON ----------------------------------------------------------------


def canonical_to_json(cf: CanonicalForm) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": cf.n,
        "pi8": [rotation_to_json(r) for r in cf.pi8],
        "clifford_trace": [rotation_to_json(r) for r in cf.clifford_trace],
        "measurement_bases": [str(b) for b in cf.measurement_bases],
    }


def rotations_from_json(entries, n: int, field: str) -> tuple[PauliRotation, ...]:
    """Rotations whose axes must act on n qubits; errors name `field`."""
    rotations = tuple(rotation_from_json(r) for r in entries)
    for i, r in enumerate(rotations):
        if r.axis.n != n:
            raise ValueError(f"{field} entry {i}: "
                             f"qubit count mismatch: {r.axis.n} vs {n}")
    return rotations


def canonical_from_json(obj: dict) -> CanonicalForm:
    """Inverse of canonical_to_json; ValueError names the first field
    that is malformed or disagrees with `n`."""
    n = obj["n"]
    if type(n) is not int or n < 1:  # type(), not isinstance: bool is no int
        raise ValueError(f"field 'n' must be an integer >= 1, got {n!r}")
    pi8 = rotations_from_json(obj["pi8"], n, "field 'pi8'")
    trace = rotations_from_json(obj["clifford_trace"], n, "field 'clifford_trace'")
    labels = obj["measurement_bases"]
    if not isinstance(labels, list) or len(labels) != n or not all(
        isinstance(b, str) for b in labels
    ):
        raise ValueError(f"field 'measurement_bases' must be {n} Pauli labels")
    bases = tuple(PauliString.from_label(b) for b in labels)
    for i, p in enumerate(bases):
        if p.n != n:
            raise ValueError(f"field 'measurement_bases' entry {i}: "
                             f"qubit count mismatch: {p.n} vs {n}")
    tableau = tableau_from_trace(n, trace)
    if bases != tuple(tableau.z_images):
        raise ValueError("measurement bases inconsistent with Clifford trace")
    return CanonicalForm(n, pi8, trace, tableau, bases)
