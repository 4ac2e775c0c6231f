"""Gate-level circuit IR, the gate-to-rotation dictionary, and a text parser.

Circuits are Clifford+T only: H, S, Sdg, T, Tdg, X, Y, Z, CNOT, CZ.
Gate lists are in time order, earliest gate first; composing operators
right-to-left is confined to the dense oracle.

Every gate expands into Pauli product rotations exp(-i*phi*P) with a
dyadic angle phi = num*pi/den.  Angles are kept as reduced fractions,
never floats, so pi/8 (non-Clifford) vs pi/4 and pi/2 (Clifford) is an
exact classification.  Pauli gates are encoded as pi/2 rotations rather
than special-cased.  The dictionary is one table, `_GATE_ROTATIONS`; a
gate's arity is the letter count of its entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pauli import PauliString

# The gate dictionary: kind -> its rotations in time order, each
# (letters, num, den) for exp(-i*(num*pi/den)*P), where letter j of P
# acts on the gate's qubit j: CNOT is over (c, t).
_GATE_ROTATIONS = {
    "h": (("Z", 1, 4), ("X", 1, 4), ("Z", 1, 4)),
    "s": (("Z", 1, 4),),
    "sdg": (("Z", -1, 4),),
    "t": (("Z", 1, 8),),
    "tdg": (("Z", -1, 8),),
    "x": (("X", 1, 2),),
    "y": (("Y", 1, 2),),
    "z": (("Z", 1, 2),),
    "cnot": (("ZX", 1, 4), ("IX", -1, 4), ("ZI", -1, 4)),
    "cz": (("ZZ", 1, 4), ("IZ", -1, 4), ("ZI", -1, 4)),
}
# each entry's letters read once, as a Pauli on the gate's own qubits
_LOCAL_ROTATIONS = {
    kind: tuple((PauliString.from_label(letters), num, den)
                for letters, num, den in entry)
    for kind, entry in _GATE_ROTATIONS.items()
}
_GATE_ARITY = {kind: len(entry[0][0]) for kind, entry in _GATE_ROTATIONS.items()}
# the pi/8 gate kinds, each a single den-8 entry: kind -> its numerator
PI8_NUM = {kind: entry[0][1] for kind, entry in _GATE_ROTATIONS.items()
           if entry[0][2] == 8}

VALID_DENOMINATORS = (2, 4, 8)


class CircuitParseError(ValueError):
    """Parse failure carrying the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != _GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_GATE_ARITY[self.kind]} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit indices in {self.kind} gate")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")


@dataclass(frozen=True)
class GateCircuit:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            if any(q >= self.n for q in g.qubits):
                raise ValueError(
                    f"gate {g.kind} on {g.qubits} out of range for n={self.n}"
                )

    def t_gate_count(self) -> int:
        return sum(g.kind in PI8_NUM for g in self.gates)


@dataclass(frozen=True)
class PauliRotation:
    """Rotation exp(-i * (num*pi/den) * axis) with a dyadic angle.

    Construction normalizes: a negative axis sign is folded into the
    numerator, the fraction is reduced until the numerator is odd, and
    the numerator is brought into (-den, den].  den == 8 marks the
    non-Clifford pi/8 family; 4 and 2 are Clifford.
    """

    axis: PauliString
    num: int
    den: int

    def __post_init__(self):
        axis, num, den = self.axis, self.num, self.den
        if axis.is_identity():
            raise ValueError("rotation axis must be non-identity")
        if not axis.is_hermitian():
            raise ValueError("rotation axis must be Hermitian")
        if axis.phase == 2:
            axis = axis.unsigned()
            num = -num
        if den not in VALID_DENOMINATORS:
            raise ValueError(f"denominator must be one of {VALID_DENOMINATORS}")
        if num == 0:
            raise ValueError("zero angle is not a rotation")
        while num % 2 == 0:
            if den == 2:
                raise ValueError("angle reduces to a multiple of pi")
            num //= 2
            den //= 2
        num %= 2 * den
        if num > den:
            num -= 2 * den
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_pi8(self) -> bool:
        return self.den == 8

    @property
    def is_clifford(self) -> bool:
        return self.den in (2, 4)

    def __str__(self) -> str:
        return f"{self.axis}_({self.num}pi/{self.den})"


@dataclass(frozen=True)
class RotationCircuit:
    n: int
    rotations: tuple[PauliRotation, ...]

    def __post_init__(self):
        for r in self.rotations:
            if r.axis.n != self.n:
                raise ValueError("rotation axis length does not match circuit")


def gate_to_rotations(gate: Gate, n: int) -> list[PauliRotation]:
    """Expand one gate into its `_GATE_ROTATIONS` entry on `n` qubits."""
    rotations = []
    for local, num, den in _LOCAL_ROTATIONS[gate.kind]:
        x = z = 0
        for j, q in enumerate(gate.qubits):  # local qubit j is qubit q
            x |= (local.x >> j & 1) << q
            z |= (local.z >> j & 1) << q
        rotations.append(PauliRotation(PauliString(n, x, z), num, den))
    return rotations


# -- text format ---------------------------------------------------------


def _is_ascii_number(token: str) -> bool:
    """Only 0-9: int() would also read "1_0", "+3" and non-ASCII digits."""
    return token.isascii() and token.isdigit()


def parse_circuit(text: str) -> GateCircuit:
    """Parse the line format: header "qubits N", then one gate per line.

    Gate lines are a lowercase mnemonic followed by space-separated
    zero-based qubit indices, e.g. "h 0" or "cnot 0 1".  "#" starts a
    comment; blank lines are ignored.

    Each distinct gate line is checked and parsed once; its repeats
    share the first one's Gate.
    """
    n = None
    gates: list[Gate] = []
    parsed: dict[str, Gate] = {}  # raw gate line -> its Gate, after the header
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = parsed.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "qubits":
                raise CircuitParseError(
                    'expected header "qubits N" before any gate', lineno
                )
            if (len(tokens) != 2 or not _is_ascii_number(tokens[1])
                    or int(tokens[1]) < 1):
                raise CircuitParseError("malformed qubit count", lineno)
            n = int(tokens[1])
            continue
        mnemonic = tokens[0]
        if mnemonic == "qubits":
            raise CircuitParseError("duplicate qubits header", lineno)
        if mnemonic not in _GATE_ARITY:
            raise CircuitParseError(f"unknown gate mnemonic {mnemonic!r}", lineno)
        arity = _GATE_ARITY[mnemonic]
        args = tokens[1:]
        if len(args) != arity:
            raise CircuitParseError(
                f"{mnemonic} expects {arity} index(es), got {len(args)}", lineno
            )
        if not _is_ascii_number("".join(args)):
            raise CircuitParseError(f"non-integer qubit index in {line!r}", lineno)
        qubits = tuple(map(int, args))
        if len(set(qubits)) != len(qubits):
            raise CircuitParseError(f"duplicate indices in {mnemonic} gate", lineno)
        if any(q < 0 or q >= n for q in qubits):
            raise CircuitParseError(
                f"qubit index out of range 0..{n - 1} in {line!r}", lineno
            )
        gate = parsed[raw] = Gate(mnemonic, qubits)
        gates.append(gate)
    if n is None:
        raise CircuitParseError('missing "qubits N" header', 1)
    return GateCircuit(n, tuple(gates))


def render_circuit(circuit: GateCircuit) -> str:
    lines = [f"qubits {circuit.n}"]
    for g in circuit.gates:
        lines.append(" ".join([g.kind] + [str(q) for q in g.qubits]))
    return "\n".join(lines) + "\n"


# -- metrics -------------------------------------------------------------


def circuit_metrics(rc: RotationCircuit) -> dict:
    """T-count plus the T-depth of the ASAP layering, the minimum over
    commutation-only reorderings (reported as `naive_t_depth`)."""
    from .layers import build_layers

    pi8 = [r for r in rc.rotations if r.is_pi8]
    t_depth = len(build_layers(pi8).layers) if pi8 else 0
    return {"t_count": len(pi8), "naive_t_depth": t_depth}


# -- JSON ----------------------------------------------------------------

SCHEMA_VERSION = 1
