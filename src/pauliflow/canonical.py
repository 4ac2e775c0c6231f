"""Canonical form: ordered pi/8 rotations followed by a final Clifford.

Every Clifford is commuted later in time past each subsequent pi/8
rotation.  After the gates before it, a T or Tdg on qubit q becomes a
pi/8 rotation about F(Z_q), where F maps each generator g in
{X_i, Z_i} to V^dag g V and V is the Clifford unitary of those gates.

`canonicalize` keeps F as a gate-level stabilizer tableau (Aaronson and
Gottesman, quant-ph/0406196; Stim's layout, arXiv:2103.02202): 2n rows
xs[q] = F(X_q), zs[q] = F(Z_q) as raw (x, z, phase) int triples in
`PauliString`'s encoding.  Appending a Clifford gate U turns F into
g -> F(U^dag g U), and since F is an automorphism each gate kind has one
hand-written rule in `GATE_RULES` that rewrites at most two rows with
`raw_product`, the phase-exact product that `PauliString.__mul__` also
calls.  A T gate reads its axis straight from the row zs[q], so a
circuit of G gates costs O(G) row products, whatever the axis weights.
`PauliString` and `PauliRotation` objects are built only at the
boundary: each pi/8 axis, and the 2n final images, which
`CliffordTableau` checks.

The payload also carries the Clifford trace C_1 ... C_k: the dictionary
expansion (`circuits.gate_to_rotations`) of the Clifford gates, in time
order.  Only the codec holds it, as a `Trace` (`clifford_trace` for
transpile, `rotations_from_json` for its readers); a `CanonicalForm` is
(n, pi8, tableau).  A reader rebuilds the tableau from that trace alone
and checks the payload's measurement bases against it, so it checks a
tableau that the writer computed another way.  The trace path crosses
Clifford rotations: one with axis P and angle theta rewrites a later
rotation axis P' to

    P'                      if P and P' commute,
    exp(2i*theta*P) * P'    if they anticommute,

which for theta = +/-pi/4 is (+/-i)P*P' and for pi/2 is -P'.  The sign
convention (the earlier operation conjugates the later axis) is pinned
by the dense-oracle equivalence test, not by prose.  Folded over the
trace, F_k = f_1 o ... o f_k with f_j the crossing rule of C_j, and
appending C_{k+1} with axis A gives F_{k+1} = F_k o f_{k+1}: the new
image of a generator g that anticommutes with A is the old image crossed
by a rotation about F_k(A) with the same angle, and every other image is
unchanged.  A weight-w axis touches at most 2w images.
`tableau_from_trace` runs that update for the reader, by index, checking
each distinct rotation once; `push_cliffords(to_rotation_circuit(gc))`
runs it over the whole rotation circuit, a second route to what
`canonicalize` computes with the gate rules.  `conjugate_axis` states
the same crossing rule for one rotation on objects; folded over a trace
it is the reference for the running update.

The final tableau maps each generator g to V^dag g V where V is the
trace unitary, so measuring Z_q after the full circuit is the same as
measuring its tableau image after just the pi/8 prefix.  The
measurement bases are therefore the tableau's Z images, not a copy.

This module is also the one codec of the two compile payloads:
`canonical_to_json` writes the transpile payload (`pi8`) and, given
layers, the optimize payload (`layers`), as text; `canonical_from_json`
reads either one back, checking layers as a `layers.Layering`.  The
writer renders the text itself because, with an indent, CPython's json
falls back to its pure-Python encoder, which would walk thousands of
rotation entries of which only a few hundred differ.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .circuits import (
    PI8_NUM,
    SCHEMA_VERSION,
    GateCircuit,
    PauliRotation,
    RotationCircuit,
    gate_rotation_fields,
)
from .layers import Layering
from .pauli import PauliString, anticommutation_rows, merged_rotation_axis, raw_product
from .scheduling import ENUMERATION_GUARD, EnumerationGuardError


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
    tableau: CliffordTableau

    def __post_init__(self):
        if any(not r.is_pi8 for r in self.pi8):
            raise ValueError("pi8 section may only contain pi/8 rotations")

    @property
    def measurement_bases(self) -> tuple[PauliString, ...]:
        """Measuring Z_q after the circuit is measuring this q-th basis
        after the pi/8 prefix: the tableau's image of Z_q."""
        return self.tableau.z_images


@dataclass(frozen=True)
class Trace:
    """Rotations as the codec carries them, entry k being distinct[order[k]]:
    each distinct rotation is built, checked and rendered once."""

    distinct: tuple[PauliRotation, ...]
    order: tuple[int, ...]

    def rotations(self) -> tuple[PauliRotation, ...]:
        return tuple(map(self.distinct.__getitem__, self.order))


def _expand(gates, n: int) -> Trace:
    """The dictionary expansion of `gates`, in time order; each distinct
    gate is expanded once, and each distinct rotation built once."""
    index, runs, order = {}, {}, []  # fields -> place in distinct; gate -> places
    for gate in gates:
        run = runs.get(gate)
        if run is None:
            run = runs[gate] = tuple(index.setdefault(f, len(index))
                                     for f in gate_rotation_fields(gate))
        order.extend(run)
    return Trace(tuple(PauliRotation(PauliString(n, x, z), num, den)
                       for x, z, num, den in index), tuple(order))


def to_rotation_circuit(gc: GateCircuit) -> RotationCircuit:
    """The dictionary expansion of every gate, in time order."""
    return RotationCircuit(gc.n, _expand(gc.gates, gc.n).rotations())


def clifford_trace(gc: GateCircuit) -> Trace:
    """The payload's Clifford trace: the dictionary expansion of the
    Clifford gates, in time order."""
    return _expand([g for g in gc.gates if g.kind in GATE_RULES], gc.n)


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


# -- running tableau over a Clifford trace, on raw (x, z, phase) triples ---


def _conjugate(xs: list, zs: list, x: int, z: int, phase: int) -> tuple:
    """Image of the Pauli (x, z, phase) given the images xs[q], zs[q] of
    X_q and Z_q.

    Decomposes the Pauli per qubit as i^{x*z} X^x Z^z, substitutes the
    generator images, and multiplies with exact phase bookkeeping.  Only
    its support is visited; a single letter costs no product.
    """
    acc = None
    support = x | z
    while support:
        low = support & -support
        support ^= low
        q = low.bit_length() - 1
        if x & low:
            acc = xs[q] if acc is None else raw_product(acc, xs[q])
        if z & low:
            acc = zs[q] if acc is None else raw_product(acc, zs[q])
    ax, az, ap = acc or (0, 0, 0)
    return ax, az, (ap + phase + (x & z).bit_count()) % 4


def _cross(xs: list, zs: list, mover: PauliRotation) -> None:
    """Update the running images in place from F to F o f_mover.

    With A = F(mover axis), each image F(g) of a generator g that
    anticommutes with the mover's axis becomes i*A*F(g) for num = 1 mod 4,
    -i*A*F(g) for num = 3 mod 4, and -F(g) for den = 2.  X_q anticommutes
    with the axis iff it has a z bit on q, Z_q iff it has an x bit there;
    only those images change.  A pi/4 mover about +-X_q (+-Z_q) moves
    F(Z_q) (F(X_q)) alone, with A = +-F(X_q) (+-F(Z_q)) read off its row.
    """
    axis = mover.axis
    if mover.den == 2:
        a, turn = None, 2
    else:
        turn = 1 if mover.num % 4 == 1 else 3
        x, z = axis.x, axis.z
        if not (x and z) and (x | z).bit_count() == 1:
            q = (x | z).bit_length() - 1
            rows, moved = (xs, zs) if x else (zs, xs)
            x, z, phase = raw_product(rows[q], moved[q])
            moved[q] = (x, z, (phase + axis.phase + turn) % 4)
            return
        a = _conjugate(xs, zs, axis.x, axis.z, axis.phase)
    for images, bits in ((xs, axis.z), (zs, axis.x)):
        while bits:
            low = bits & -bits
            bits ^= low
            q = low.bit_length() - 1
            x, z, phase = images[q] if a is None else raw_product(a, images[q])
            images[q] = (x, z, (phase + turn) % 4)


def _identity_rows(n: int) -> tuple[list, list]:
    return [(1 << q, 0, 0) for q in range(n)], [(0, 1 << q, 0) for q in range(n)]


def _tableau(n: int, xs: list, zs: list) -> CliffordTableau:
    """The boundary: running images as a checked CliffordTableau."""
    return CliffordTableau(n, tuple(PauliString(n, *img) for img in xs),
                           tuple(PauliString(n, *img) for img in zs))


def push_cliffords(rc: RotationCircuit) -> CanonicalForm:
    """Sweep all Clifford rotations to the end of the circuit.

    Walks the rotations in time order with a running tableau of the
    Cliffords seen so far.  Each arriving pi/8 axis is mapped through
    that tableau (one product per letter of the axis); each Clifford
    rewrites the at most 2w generator images its weight-w axis
    anticommutes with.  Total cost O(T*w + C*w) for C Cliffords.
    The pi/8 count is preserved exactly.
    """
    n = rc.n
    xs, zs = _identity_rows(n)
    pi8: list[PauliRotation] = []
    for rot in rc.rotations:
        if rot.is_pi8:
            axis = rot.axis
            image = _conjugate(xs, zs, axis.x, axis.z, axis.phase)
            pi8.append(PauliRotation(PauliString(n, *image), rot.num, 8))
        else:
            _cross(xs, zs, rot)
    return CanonicalForm(n, tuple(pi8), _tableau(n, xs, zs))


def tableau_from_trace(n: int, trace: Trace) -> CliffordTableau:
    """Tableau of a Clifford trace, built with the same running update
    as `push_cliffords`, by index: O(|trace|*w) for weight-w axes.  Each
    distinct rotation is checked once; a failure names the first bad entry."""
    if not all(r.is_clifford and r.axis.n == n for r in trace.distinct):
        for mover in trace.rotations():
            if not mover.is_clifford:
                raise ValueError("only Clifford rotations may be moved across")
            if mover.axis.n != n:
                raise ValueError(f"qubit count mismatch: {mover.axis.n} vs {n}")
    xs, zs = _identity_rows(n)
    for i in trace.order:
        _cross(xs, zs, trace.distinct[i])
    return _tableau(n, xs, zs)


# -- gate-level tableau ------------------------------------------------------
#
# One rule per Clifford gate kind on the rows xs[q] = F(X_q), zs[q] = F(Z_q):
# the new row of generator g is F(U^dag g U), written as a product of rows.


def _negated(row: tuple) -> tuple:
    x, z, phase = row
    return x, z, (phase + 2) % 4


def _h(xs: list, zs: list, q: int) -> None:
    # H X H = Z, H Z H = X
    xs[q], zs[q] = zs[q], xs[q]


def _s(xs: list, zs: list, q: int) -> None:
    # S^dag X S = -Y = i^3 X Z; Z is fixed
    x, z, phase = raw_product(xs[q], zs[q])
    xs[q] = (x, z, (phase + 3) % 4)


def _sdg(xs: list, zs: list, q: int) -> None:
    # S X S^dag = Y = i X Z; Z is fixed
    x, z, phase = raw_product(xs[q], zs[q])
    xs[q] = (x, z, (phase + 1) % 4)


def _x(xs: list, zs: list, q: int) -> None:
    # X Z X = -Z
    zs[q] = _negated(zs[q])


def _y(xs: list, zs: list, q: int) -> None:
    # Y X Y = -X, Y Z Y = -Z
    xs[q] = _negated(xs[q])
    zs[q] = _negated(zs[q])


def _z(xs: list, zs: list, q: int) -> None:
    # Z X Z = -X
    xs[q] = _negated(xs[q])


def _cnot(xs: list, zs: list, c: int, t: int) -> None:
    # X_c -> X_c X_t and Z_t -> Z_c Z_t; X_t and Z_c are fixed
    xs[c] = raw_product(xs[c], xs[t])
    zs[t] = raw_product(zs[c], zs[t])


def _cz(xs: list, zs: list, a: int, b: int) -> None:
    # X_a -> X_a Z_b and X_b -> Z_a X_b; both Z are fixed
    xs[a] = raw_product(xs[a], zs[b])
    xs[b] = raw_product(zs[a], xs[b])


GATE_RULES = {"h": _h, "s": _s, "sdg": _sdg, "x": _x, "y": _y, "z": _z,
              "cnot": _cnot, "cz": _cz}


def canonicalize(gc: GateCircuit) -> CanonicalForm:
    """The canonical form of `gc` in one walk of its gates: a Clifford
    gate applies its rule; a T or Tdg on qubit q reads its axis from
    zs[q].  Equal to push_cliffords(to_rotation_circuit(gc)).

    A width with n^2 over ENUMERATION_GUARD is refused before any row is
    built: the 2n rows hold n-bit masks, and the payload n bases of n
    letters each.
    """
    n = gc.n
    if n * n > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"n = {n} qubits: the tableau has n^2 = {n * n} entries, "
            f"over the guard of {ENUMERATION_GUARD}")
    xs, zs = _identity_rows(n)
    pi8 = []
    for gate in gc.gates:
        rule = GATE_RULES.get(gate.kind)
        if rule is not None:
            rule(xs, zs, *gate.qubits)
        else:
            pi8.append(PauliRotation(PauliString(n, *zs[gate.qubits[0]]),
                                     PI8_NUM[gate.kind], 8))
    return CanonicalForm(n, tuple(pi8), _tableau(n, xs, zs))


# -- JSON ----------------------------------------------------------------


def _container_text(items: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON list (or, with brackets "{}", object) nested `depth` deep,
    of items already rendered one level deeper, laid out as
    json.dumps(..., indent=2) lays it out."""
    if not items:
        return brackets
    pad = "  " * depth
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def canonical_to_json(cf: CanonicalForm, trace: Trace, layers: list | None = None,
                      tail: dict | None = None) -> str:
    """The transpile payload, or, given `layers` (lists of rotations), the
    optimize payload, which holds the pi/8 rotations as those layers; with
    the Clifford `trace`, and `tail`'s keys after the measurement bases.

    Returns exactly json.dumps(payload, indent=2) of the payload as a
    dict, with each distinct rotation's entry rendered once per depth.
    """
    memos: dict = {}

    def rotations_text(rotations, depth: int, order=None) -> str:
        memo = memos.setdefault(depth, {})
        pad = "  " * (depth + 1)
        entries = []
        for rot in rotations:
            axis = rot.axis
            # the raw fields: hashing and comparing the dataclasses costs
            # about as much as rendering the entry again
            key = (axis.n, axis.x, axis.z, axis.phase, rot.num, rot.den)
            text = memo.get(key)
            if text is None:
                # a Pauli label needs no JSON escape
                text = memo[key] = (
                    f'{{\n{pad}  "axis": "{axis}",\n'
                    f'{pad}  "num": {rot.num},\n{pad}  "den": {rot.den}\n{pad}}}')
            entries.append(text)
        return _container_text(entries if order is None else [entries[k] for k in order], depth)

    texts = {"schema_version": json.dumps(SCHEMA_VERSION), "n": json.dumps(cf.n)}
    if layers is None:
        texts["pi8"] = rotations_text(cf.pi8, 1)
    else:
        texts["layers"] = _container_text([rotations_text(layer, 2) for layer in layers], 1)
    texts["clifford_trace"] = rotations_text(trace.distinct, 1, trace.order)
    rest = {"measurement_bases": [str(b) for b in cf.measurement_bases], **(tail or {})}
    for key, value in rest.items():
        # one level deeper than json.dumps puts it: a JSON string holds no raw newline
        texts[key] = json.dumps(value, indent=2).replace("\n", "\n  ")
    return _container_text([f"{json.dumps(key)}: {text}" for key, text in texts.items()],
                           0, "{}")


def rotations_from_json(entries, n: int, field: str) -> Trace:
    """Rotations, as a `Trace`, whose axes must act on n qubits; errors name `field`."""
    if not isinstance(entries, list):
        raise ValueError(f"{field} must be a list of rotations, got {entries!r}")
    # one PauliRotation per distinct entry, looked up only once the entry's
    # fields have their exact types (True == 1 would hash alike); the slow
    # path reads a dict subclass, or names a malformed entry's first bad field
    memo: dict = {}  # (axis, num, den) -> place in distinct
    distinct, order = [], []
    for entry in entries:
        axis, num, den = key = ((entry.get("axis"), entry.get("num"), entry.get("den"))
                                if type(entry) is dict else (None,) * 3)
        if type(axis) is not str or type(num) is not int or type(den) is not int:
            if not isinstance(entry, dict):
                raise ValueError(f"rotation must be a JSON object, got {entry!r}")
            for name, kind in (("axis", str), ("num", int), ("den", int)):
                if type(entry[name]) is not kind:  # type(), not isinstance: bool is no int
                    raise ValueError(f"rotation field {name!r} must be of type "
                                     f"{kind.__name__}, got {entry[name]!r}")
            key = entry["axis"], entry["num"], entry["den"]
        i = memo.get(key)
        if i is None:
            axis, num, den = key
            i = memo[key] = len(distinct)
            distinct.append(PauliRotation(PauliString.from_label(axis), num, den))
        order.append(i)
    read = Trace(tuple(distinct), tuple(order))
    # checked once per distinct rotation; the index is looked for only on failure
    if any(r.axis.n != n for r in distinct):
        i, r = next((i, r) for i, r in enumerate(read.rotations()) if r.axis.n != n)
        raise ValueError(f"{field} entry {i}: qubit count mismatch: {r.axis.n} vs {n}")
    return read


def canonical_from_json(obj: dict) -> tuple[CanonicalForm, Trace]:
    """Inverse of canonical_to_json for either payload, the trace normalized
    entry by entry; ValueError names the first field that is malformed or
    disagrees with `n`.

    A payload with both `pi8` and `layers` is refused.  One with `layers`
    gives its layers, in order, as the pi/8 list: layers only reorder
    commuting rotations, so the product is unchanged.  They are read
    after the trace and the bases, and `schema_version`, which must be
    exactly SCHEMA_VERSION, next; last they must form a valid
    `Layering`, which in layer order can fail only on an empty layer or
    an anticommuting pair within one.
    """
    layered = "layers" in obj
    if layered and "pi8" in obj:
        raise ValueError("fields 'pi8' and 'layers' are both present: a transpile "
                         "payload has only 'pi8', an optimize payload only 'layers'")
    n = obj["n"]
    if type(n) is not int or n < 1:  # type(), not isinstance: bool is no int
        raise ValueError(f"field 'n' must be an integer >= 1, got {n!r}")
    pi8 = () if layered else rotations_from_json(obj["pi8"], n, "field 'pi8'").rotations()
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
    tableau = tableau_from_trace(n, trace)  # widths were checked as it was read
    if bases != tableau.z_images:
        raise ValueError("measurement bases inconsistent with Clifford trace")
    if layered:  # errors name the layer and the entry within it
        layers = obj["layers"]
        if not isinstance(layers, list):
            raise ValueError(f"field 'layers' must be a list of layers, got {layers!r}")
        groups = [rotations_from_json(layer, n, f"field 'layers' layer {i}").rotations()
                  for i, layer in enumerate(layers)]
        pi8 = tuple(itertools.chain.from_iterable(groups))
    version = obj["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"field 'schema_version' must be the integer "
                         f"{SCHEMA_VERSION}, got {version!r}")
    cf = CanonicalForm(n, pi8, tableau)
    if layered:  # the check optimize runs before it writes
        ends = itertools.accumulate(map(len, groups))
        indices = tuple(tuple(range(e - len(g), e)) for g, e in zip(groups, ends))
        try:
            Layering(n, pi8, indices).validate()
        except ValueError as exc:
            raise ValueError(f"field 'layers': {exc}") from None
    return cf, trace
