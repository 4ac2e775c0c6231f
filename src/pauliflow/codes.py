"""Stabilizer codes, algebraic syndromes, lookup decoding, Monte Carlo.

Syndrome extraction is algebraic: bit i is 1 iff the error anticommutes
with generator i.  This matches ideal ancilla-based measurement; a
single perfect syndrome round is assumed throughout (no measurement
errors, no temporal decoding).

The lookup decoder enumerates Pauli errors by increasing weight (within
a weight class: qubit subsets in index order, letters in X < Y < Z
product order) and keeps the first error seen per syndrome, giving a
deterministic minimum-weight coset representative; the syndromes are
one `anticommutation_rows` pass, at any n.  Residuals are classified
symplectically, phases ignored: anticommuting with any generator is
"uncorrected", membership in the generator span is "success", and a
commuting non-member is a "logical_error".

Monte Carlo campaigns sample i.i.d. per-qubit errors in fixed-size
shard blocks whose RNG streams derive from (seed, shard index), so
counts are bit-identical regardless of how many workers the shards are
spread across.  A shot is one uint64 symplectic_vector row (x << n) | z,
so campaigns need n <= 32.  Syndrome bit i is the parity of the row
ANDed with generator i's mask (z << n) | x.  The residual a table hit
leaves commutes with every generator; for a code that passes
validate_code it is a logical_error iff it anticommutes with one of the
2k logical operators (Aaronson & Gottesman, quant-ph/0406196).

A shard draws every shot's uniforms but builds rows only for the shots
that drew an error, and classifies only those.  At low noise most shots
draw none (0.99^25 ~ 78% for surface5 at p = 1%); they all fall in the
class of the zero row, which each shard classifies once against the
decoder's own table, so even a hand-built table that maps the zero
syndrome to a logical operator is counted exactly.  Sparse handling of
low-rate Pauli noise follows Stim (Gidney, arXiv:2103.02202).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuits import SCHEMA_VERSION
from .pauli import (
    PauliString,
    anticommutation_rows,
    gf2_pivots,
    gf2_reduce,
    independent,
    set_bits,
    symplectic_vector,
)

LOOKUP_GUARD_M = 24
MONTE_CARLO_MAX_N = 32  # 2n bits per uint64 row
_SHARD_SHOTS = 65536

SUCCESS = "success"
LOGICAL_ERROR = "logical_error"
UNCORRECTED = "uncorrected"
DETECTED_UNCORRECTABLE = "detected_uncorrectable"


@dataclass(frozen=True)
class StabilizerCode:
    n: int
    k: int
    generators: tuple[PauliString, ...]
    logical_x: tuple[PauliString, ...]
    logical_z: tuple[PauliString, ...]
    distance: int

    def __post_init__(self):
        if len(self.generators) != self.n - self.k:
            raise ValueError("need exactly n - k generators")
        if len(self.logical_x) != self.k or len(self.logical_z) != self.k:
            raise ValueError("need k logical X and k logical Z operators")

    @property
    def m(self) -> int:
        return len(self.generators)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "k": self.k,
            "distance": self.distance,
            "generators": [str(g) for g in self.generators],
            "logical_x": [str(p) for p in self.logical_x],
            "logical_z": [str(p) for p in self.logical_z],
        }


@dataclass
class CodeValidation:
    structural: bool
    commuting: bool
    independent: bool
    logicals: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.structural and self.commuting and self.independent and self.logicals


def validate_code(code: StabilizerCode) -> CodeValidation:
    """Check generator validity rules and the logical-operator relations,
    reading commutation from one `anticommutation_rows` pass.  Operators
    of the wrong length skip the algebraic checks (their flags False)."""
    gens, m, k = code.generators, code.m, code.k
    ops = gens + code.logical_x + code.logical_z
    failures = [f"{p} is not a Hermitian length-{code.n} Pauli"
                for p in ops if p.n != code.n or not p.is_hermitian()]
    if any(p.n != code.n for p in ops):
        return CodeValidation(False, False, False, False, failures)

    rows, gen_bits = anticommutation_rows(ops, ops), (1 << m) - 1
    anti = [f"generators {a} and {b} anticommute"
            for a in range(m) for b in set_bits(rows[a] & gen_bits) if b > a]
    indep = independent(list(gens))
    dependent = [] if indep else ["generators are not independent over GF(2)"]
    logical = [f"logical {label}[{i}] anticommutes with generator {g}"
               for label, start in (("X", m), ("Z", m + k))
               for i in range(k) for g in set_bits(rows[start + i] & gen_bits)]
    for i in range(k):
        # bit j of x_row, z_row: logical X[j]; bit k + j: logical Z[j]
        x_row, z_row = rows[m + i] >> m, rows[m + k + i] >> m
        if not x_row >> (k + i) & 1:
            logical.append(f"logical X[{i}] and Z[{i}] do not anticommute")
        for j in range(k):
            for row, bit, pair in ((x_row, k + j, f"X[{i}] and Z[{j}]"),
                                   (x_row, j, f"X[{i}] and X[{j}]"),
                                   (z_row, k + j, f"Z[{i}] and Z[{j}]")):
                if j != i and row >> bit & 1:
                    logical.append(f"logical {pair} should commute")
    return CodeValidation(not failures, not anti, indep, not logical,
                          failures + anti + dependent + logical)


# -- code constructors -----------------------------------------------------


def repetition_code(n_qubits: int) -> StabilizerCode:
    """Bit-flip repetition code: Z_i Z_{i+1} parity checks, distance n."""
    if n_qubits < 3 or n_qubits % 2 == 0:
        raise ValueError(f"repetition code needs odd n >= 3, got {n_qubits}")
    gens = tuple(
        PauliString(n_qubits, 0, 0b11 << i) for i in range(n_qubits - 1)
    )
    logical_z = PauliString.single(n_qubits, 0, "Z")
    logical_x = PauliString(n_qubits, (1 << n_qubits) - 1, 0)
    return StabilizerCode(
        n=n_qubits,
        k=1,
        generators=gens,
        logical_x=(logical_x,),
        logical_z=(logical_z,),
        distance=n_qubits,
    )


def rotated_surface_code(d: int) -> StabilizerCode:
    """Rotated surface code on a d x d data grid, one logical qubit.

    Data qubit (r, c) has index r*d + c.  Bulk faces are checkerboard
    colored, X-type on (r + c) even; weight-2 boundary checks sit on the
    top/bottom edges for X-type and left/right for Z-type, at columns
    and rows that continue the bulk coloring.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"surface code distance must be odd and >= 3, got {d}")
    n = d * d

    def q(r: int, c: int) -> int:
        return r * d + c

    def x_check(qubits) -> PauliString:
        return PauliString(n, sum(1 << i for i in qubits), 0)

    def z_check(qubits) -> PauliString:
        return PauliString(n, 0, sum(1 << i for i in qubits))

    gens: list[PauliString] = []
    for r in range(d - 1):
        for c in range(d - 1):
            corners = (q(r, c), q(r, c + 1), q(r + 1, c), q(r + 1, c + 1))
            gens.append(x_check(corners) if (r + c) % 2 == 0 else z_check(corners))
    for c in range(d - 1):
        if c % 2 == 1:  # top boundary, continues the X coloring of row -1
            gens.append(x_check((q(0, c), q(0, c + 1))))
        else:  # bottom boundary
            gens.append(x_check((q(d - 1, c), q(d - 1, c + 1))))
    for r in range(d - 1):
        if r % 2 == 0:  # left boundary, continues the Z coloring of column -1
            gens.append(z_check((q(r, 0), q(r + 1, 0))))
        else:  # right boundary
            gens.append(z_check((q(r, d - 1), q(r + 1, d - 1))))

    logical_z = PauliString(n, 0, sum(1 << q(0, c) for c in range(d)))
    logical_x = PauliString(n, sum(1 << q(r, 0) for r in range(d)), 0)
    return StabilizerCode(
        n=n,
        k=1,
        generators=tuple(gens),
        logical_x=(logical_x,),
        logical_z=(logical_z,),
        distance=d,
    )


# -- syndromes and decoding --------------------------------------------------


def syndrome(code: StabilizerCode, error: PauliString) -> tuple[int, ...]:
    """Bit i is 1 iff the error anticommutes with generator i."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return tuple(int(error.anticommutes(g)) for g in code.generators)


@dataclass
class LookupDecoder:
    code: StabilizerCode
    table: dict[tuple[int, ...], PauliString]
    max_weight: int


def _errors_by_weight(n: int, max_weight: int):
    """Pauli errors of weight 0..max_weight, deterministic minimum-weight-first
    order: weight, then qubit subset in index order, then X < Y < Z letters."""
    yield PauliString.identity(n)
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            # letters X < Y < Z as (x, z) bits
            for letters in itertools.product(((1, 0), (1, 1), (0, 1)), repeat=w):
                x = z = 0
                for q, (xb, zb) in zip(support, letters):
                    x |= xb << q
                    z |= zb << q
                yield PauliString(n, x, z)


def build_lookup(code: StabilizerCode, max_weight: int) -> LookupDecoder:
    """Enumerate low-weight errors; first error per syndrome is its correction."""
    if code.m > LOOKUP_GUARD_M:
        raise ValueError(
            f"lookup table needs m <= {LOOKUP_GUARD_M} generators, got {code.m}"
        )
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    errors = list(_errors_by_weight(code.n, max_weight))
    first: dict[int, PauliString] = {}
    for key, error in zip(anticommutation_rows(errors, code.generators), errors):
        first.setdefault(key, error)
    # key bit i is syndrome bit i; unpack every key in one pass
    keys = np.array(list(first), dtype=np.int64)
    bits = keys[:, None] >> np.arange(code.m) & 1
    table = dict(zip(map(tuple, bits.tolist()), first.values()))
    return LookupDecoder(code=code, table=table, max_weight=max_weight)


def decode(dec: LookupDecoder, s: tuple[int, ...]) -> Optional[PauliString]:
    """Correction for a syndrome, or None when detected-uncorrectable."""
    if len(s) != dec.code.m:
        raise ValueError(f"syndrome length {len(s)} != {dec.code.m}")
    return dec.table.get(tuple(s))


def residual_class(
    code: StabilizerCode, error: PauliString, correction: PauliString
) -> str:
    """Classify correction * error: success, logical_error, or uncorrected."""
    if error.n != code.n or correction.n != code.n:
        raise ValueError("operator length does not match the code")
    residual = correction * error
    if any(residual.anticommutes(g) for g in code.generators):
        return UNCORRECTED
    pivots = gf2_pivots(symplectic_vector(g) for g in code.generators)
    if gf2_reduce(pivots, symplectic_vector(residual)) == 0:
        return SUCCESS
    return LOGICAL_ERROR


# -- noise and Monte Carlo ---------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in ("bitflip", "depolarizing"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0 <= self.p <= 1:
            raise ValueError("error probability must be in [0, 1]")


@dataclass
class MonteCarloResult:
    shots: int
    seed: int
    counts: dict[str, int]
    p_logical_estimate: float
    wilson_95_interval: tuple[float, float]

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "shots": self.shots,
            "seed": self.seed,
            "counts": dict(self.counts),
            "p_logical_estimate": self.p_logical_estimate,
            "wilson_95_interval": list(self.wilson_95_interval),
        }


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of a (count, w) 0/1 array, w <= 64, as uint64: column b is bit b."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(bits), 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view("<u8")[:, 0]


def _parities(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Entry (r, j) is the parity of rows[r] & masks[j]; with the mask
    (z << n) | x of a Pauli, 1 iff row r anticommutes with it."""
    return np.bitwise_count(rows[:, None] & masks) & 1


def _decoder_arrays(dec: LookupDecoder):
    """Vectorized companions over symplectic_vector rows: n, generator
    masks, the table as sorted syndrome keys (bit i = syndrome bit i)
    with their correction rows, and the 2k logical-operator masks."""
    code = dec.code

    def masks(paulis):
        return np.array([(p.z << code.n) | p.x for p in paulis], dtype=np.uint64)

    keys, corrections = np.array(sorted(
        (sum(bit << i for i, bit in enumerate(s)), symplectic_vector(corr))
        for s, corr in dec.table.items()
    ), dtype=np.uint64).T
    logicals = masks(code.logical_x + code.logical_z)
    return code.n, masks(code.generators), keys, corrections, logicals


def _sample_errors(rng, count: int, n: int, noise: NoiseModel):
    """The shots that drew a non-identity error, as increasing shot
    indices and their symplectic_vector rows (x << n) | z as uint64.

    Every shot draws u = rng.random((count, n)); qubit q of a shot takes
    X from u < p (bitflip), or X and Y from u < 2p/3 and Y and Z from
    p/3 <= u < p (depolarizing).  Only the entries with u < p are read.
    """
    if noise.p == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint64)
    u = rng.random((count, n)).ravel()
    p = noise.p
    # depolarizing: u < p is exactly the union of the X letters u < 2p/3
    # and the Z letters p/3 <= u < p, as p/3 <= 2p/3 <= p after rounding
    flat = np.flatnonzero(u < p)
    shot = flat // n
    bit = np.uint64(1) << (flat % n).astype(np.uint64)
    if noise.kind == "bitflip":
        letters = bit << np.uint64(n)
    else:
        v = u[flat]
        letters = np.where(v < 2 * p / 3, bit << np.uint64(n), 0)
        letters |= np.where(v >= p / 3, bit, 0)
    starts = np.flatnonzero(np.diff(shot, prepend=-1))
    return shot[starts], np.bitwise_or.reduceat(letters, starts)


def _classify(rows, gen_masks, keys, corrections, logical_masks):
    """Class index per row: 0 success, 1 logical_error, 2 detected-
    uncorrectable (its syndrome is not a table key)."""
    synd = _pack(_parities(rows, gen_masks))
    pos = np.minimum(np.searchsorted(keys, synd), len(keys) - 1)
    # a hit leaves a residual with zero syndrome; it lies in the generator
    # span iff it also commutes with every logical operator
    logical = _parities(rows ^ corrections[pos], logical_masks).any(axis=1)
    return np.where(keys[pos] == synd, logical, 2)


_CLASSES = (SUCCESS, LOGICAL_ERROR, DETECTED_UNCORRECTABLE)


def _run_shard(args):
    (dec_arrays, noise, count, seed, shard_index) = args
    n, *arrays = dec_arrays
    rng = np.random.default_rng(np.random.SeedSequence([seed, shard_index]))
    _, rows = _sample_errors(rng, count, n, noise)
    # row 0 is the identity: every shot that drew no error falls in its
    # class, which the table decides (a hand-built one may not map the
    # zero syndrome to a stabilizer)
    classes = _classify(np.insert(rows, 0, 0), *arrays)
    counts = np.bincount(classes[1:], minlength=3)
    counts[classes[0]] += count - len(rows)
    return dict(zip(_CLASSES, counts.tolist()))


def monte_carlo(
    code: StabilizerCode,
    dec: LookupDecoder,
    noise: NoiseModel,
    shots: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloResult:
    """Sample errors, decode, classify; logical failure counts both the
    logical_error class and detected-uncorrectable table misses.

    The code must pass validate_code and have n <= MONTE_CARLO_MAX_N
    qubits; otherwise ValueError names the first failure or the limit.

    Shots are processed in fixed-size shards with RNG streams derived
    from (seed, shard), so counts do not depend on the worker count.
    Within a shard only the shots that drew an error are built and
    classified; the rest take the identity row's class, found once.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if code.n > MONTE_CARLO_MAX_N:
        raise ValueError(
            f"monte_carlo needs n <= {MONTE_CARLO_MAX_N} qubits (2n bits per "
            f"uint64 row), got n = {code.n}"
        )
    report = validate_code(code)
    if not report.ok:
        raise ValueError(f"invalid code: {report.failures[0]}")
    dec_arrays = _decoder_arrays(dec)
    jobs = [
        (dec_arrays, noise, min(_SHARD_SHOTS, shots - start), seed, idx)
        for idx, start in enumerate(range(0, shots, _SHARD_SHOTS))
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shard_counts = list(pool.map(_run_shard, jobs))
    else:
        shard_counts = [_run_shard(job) for job in jobs]
    counts = {SUCCESS: 0, LOGICAL_ERROR: 0, DETECTED_UNCORRECTABLE: 0}
    for sc in shard_counts:
        for key, value in sc.items():
            counts[key] += value
    failures = counts[LOGICAL_ERROR] + counts[DETECTED_UNCORRECTABLE]
    return MonteCarloResult(
        shots=shots,
        seed=seed,
        counts=counts,
        p_logical_estimate=failures / shots,
        wilson_95_interval=wilson_interval(failures, shots),
    )


def repetition_failure_rate(n: int, p: float) -> float:
    """Analytic bit-flip failure probability: majority vote loses when
    more than (n-1)/2 qubits flip."""
    t = (n - 1) // 2
    total = 0.0
    for k in range(t + 1, n + 1):
        total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return total
