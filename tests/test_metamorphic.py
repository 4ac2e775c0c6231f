"""Metamorphic relations between circuits: evidence for the gate rules at
every width.

`canonicalize` applies one hand-written rule per Clifford gate kind
(`canonical.GATE_RULES`).  Two exact relations tie the rules to one
another, in O(G) work at any n:

- Substitution: replacing gates by exact identities (x = h z h, z = s s,
  sdg = s s s, y = s x sdg, cz a b = h b . cnot a b . h b and
  cnot a b = h a . h b . cnot b a . h a . h b, each in time order) keeps
  the Clifford of every prefix up to a global phase, so the pi/8 list
  (axes, signs and numerators) and the final tableau are unchanged,
  label for label.
- Inverse: U followed by U^dag (gates reversed, t <-> tdg, s <-> sdg)
  has the identity tableau, and its pi/8 list is U's followed by U's
  reversed with each numerator negated: the Clifford frame before a
  mirrored gate is the one before the original.

What the relations cannot see: a rule set that is wrong by one
consistent convention (every gate conjugating the other way, say)
satisfies every identity, since both sides of each go through the same
convention.  The dense oracle pins the conventions, but only at
n <= 10 (`test_canonical.py`, `test_oracle.py`); these relations carry
the rules' mutual consistency to n = 64.  Together the two cover what
neither covers alone.  An exception inside `canonicalize` fails a test
as a wrong label does.

Sources: Chen, Cheung & Yiu, "Metamorphic testing: a new approach for
generating next test cases", HKUST-CS98-01 (1998); Paltenghi & Pradel,
"MorphQ", arXiv:2206.01111; Burgholzer & Wille, arXiv:2004.08420
(checking G . G'^dag against the identity).
"""

import random

from hypothesis import given, settings, strategies as st

from pauliflow.canonical import CliffordTableau, canonicalize
from pauliflow.circuits import Gate, GateCircuit

ONE_QUBIT = ("h", "s", "sdg", "t", "tdg", "x", "y", "z")
TWO_QUBIT = ("cnot", "cz")

# each gate kind's exact identity, as gates in time order
IDENTITIES = {
    "x": lambda q: [("h", q), ("z", q), ("h", q)],
    "z": lambda q: [("s", q), ("s", q)],
    "sdg": lambda q: [("s", q)] * 3,
    "y": lambda q: [("s", q), ("x", q), ("sdg", q)],
    "cz": lambda a, b: [("h", b), ("cnot", a, b), ("h", b)],
    "cnot": lambda a, b: [("h", a), ("h", b), ("cnot", b, a), ("h", a), ("h", b)],
}
INVERSE = {"t": "tdg", "tdg": "t", "s": "sdg", "sdg": "s"}


def random_gates(n: int, count: int, rng: random.Random) -> list[Gate]:
    """count gates of all ten kinds (two-qubit ones only at n >= 2)."""
    kinds = ONE_QUBIT + TWO_QUBIT if n >= 2 else ONE_QUBIT
    gates = []
    for _ in range(count):
        kind = rng.choice(kinds)
        qubits = rng.sample(range(n), 2) if kind in TWO_QUBIT else [rng.randrange(n)]
        gates.append(Gate(kind, tuple(qubits)))
    return gates


def substituted(gates: list[Gate], rng: random.Random) -> list[Gate]:
    """Each gate with an identity replaced by it with probability 1/2."""
    out = []
    for gate in gates:
        if rng.random() < 0.5 and gate.kind in IDENTITIES:
            out.extend(Gate(kind, tuple(qubits))
                       for kind, *qubits in IDENTITIES[gate.kind](*gate.qubits))
        else:
            out.append(gate)
    return out


def inverse(gates: list[Gate]) -> list[Gate]:
    return [Gate(INVERSE.get(g.kind, g.kind), g.qubits) for g in reversed(gates)]


def labels(n: int, gates: list[Gate]):
    """The canonical form of the gates as text: each pi/8 rotation's
    (axis, numerator, denominator), then the X and Z images."""
    cf = canonicalize(GateCircuit(n, tuple(gates)))
    return ([(str(r.axis), r.num, r.den) for r in cf.pi8],
            [str(p) for p in cf.tableau.x_images],
            [str(p) for p in cf.tableau.z_images])


def check_substitution(n: int, gates: list[Gate], rng: random.Random) -> None:
    assert labels(n, substituted(gates, rng)) == labels(n, gates)


def check_inverse(n: int, gates: list[Gate]) -> None:
    pi8, xs, zs = labels(n, gates + inverse(gates))
    identity = CliffordTableau.identity(n)
    assert xs == [str(p) for p in identity.x_images]
    assert zs == [str(p) for p in identity.z_images]
    forward, _, _ = labels(n, gates)
    assert pi8 == forward + [(axis, -num, den) for axis, num, den in reversed(forward)]


circuits = st.tuples(st.integers(1, 64), st.integers(0, 3000), st.integers(0, 2**32))


class TestSubstitution:
    @given(circuits)
    @settings(max_examples=100, deadline=None)
    def test_identities_keep_the_canonical_form(self, case):
        n, count, seed = case
        rng = random.Random(seed)
        check_substitution(n, random_gates(n, count, rng), rng)

    def test_at_64_qubits_and_5000_gates(self):
        rng = random.Random(23)
        check_substitution(64, random_gates(64, 5000, rng), rng)


class TestInverse:
    @given(circuits)
    @settings(max_examples=100, deadline=None)
    def test_circuit_then_its_inverse(self, case):
        n, count, seed = case
        check_inverse(n, random_gates(n, count, random.Random(seed)))

    def test_at_64_qubits_and_5000_gates(self):
        check_inverse(64, random_gates(64, 5000, random.Random(29)))
