"""Stabilizer codes, algebraic syndromes, lookup decoding, Monte Carlo.

Syndrome extraction is algebraic: bit i is 1 iff the error anticommutes
with generator i.  This matches ideal ancilla-based measurement; a
single perfect syndrome round is assumed throughout (no measurement
errors, no temporal decoding).

The lookup table and the Monte Carlo campaign read one set of per-letter
words (_letter_words): the `anticommutation_rows` row of each
single-qubit X, Y and Z against the generators, then the 2k logical
operators, so m syndrome bits with 2k logical parities above bit m.
Both are linear in the error, so an error's word is the XOR of its
letters' words (Aaronson & Gottesman, quant-ph/0406196).

The lookup decoder enumerates Pauli errors by increasing weight (within
a weight class: qubit subsets in index order, letters in X < Y < Z
product order), XORing letter words, and keeps the first error seen per
syndrome, giving a deterministic minimum-weight coset representative.
It keeps each as one integer, its word and its x and z bits, and builds
a PauliString for each when the table is first read, at any n.  The error
count, a sum of at most n + 1 terms, is checked against
LOOKUP_GUARD_ERRORS before the letter words are built.  Residuals are
classified symplectically, phases ignored: anticommuting with any
generator is "uncorrected", membership in the generator span is
"success", and a commuting non-member is a "logical_error".

Monte Carlo campaigns run on the decoder's own code, `dec.code`, and
sample i.i.d. per-qubit errors in fixed-size shards whose RNG streams
derive from (seed, shard index), so counts are bit-identical regardless
of how many workers the shards are spread across; every campaign runs
on a thread pool, by default of one thread per usable CPU.  Each takes
the next shard from a shared counter and sums its own counts, until a
worker's error or Ctrl-C stops them all within a shard.  A shot is
classified by one uint64 word of m + 2k <= 64 bits, the XOR of its drawn
letters' words; table keys are m <= 64 bits.  The residual a table hit
leaves commutes with every generator; for a code that passes
validate_code it is a logical_error iff it anticommutes with one of the
2k logical operators, that is iff the shot's logical parities differ
from its correction's.  A table whose corrections do not clear their
keys is refused.

A shard's count * n Bernoulli(p) trials, in (shot, qubit) order, err at
the running sums of geometric gaps, and each error then draws its
letter, so a shard draws about p * n numbers per shot however small p
is (Stim's sparse sampling, Gidney, arXiv:2103.02202).  Gaps and letters
come from two child streams of the shard's SeedSequence, and each draw
consumes whole 64-bit words, so the errors do not depend on how the
draws are split.  A shard is drawn and classified in blocks of about
_BLOCK_ERRORS errors (32768 shots a block for surface5 at p = 1%, 327
at p = 1), so its working set is bounded at any p, and only the shots
that drew an error are looked up.  At low noise most shots draw none
(0.99^25 ~ 78% for surface5 at p = 1%); they all fall in the class of
the zero word, which each shard classifies once against the decoder's
own table, so even a hand-built table that maps the zero syndrome to a
logical operator is counted exactly.

failure_counts classifies every error up to a weight in the same way,
so the exact p_L of a campaign is a polynomial in p whose enumerated
part is exact and whose rest is bounded by the binomial tail (Bravyi &
Vargo, arXiv:1308.6270).  An error's word is its lowest qubit's letter
word XOR a word one weight lighter on the qubits above, so no support
is built in Python.  Both read a decoder's packed errors and its code's
letter words (_decoder_arrays); a hand-built table is checked and
packed once, when LookupDecoder.from_table makes its decoder.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

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

# surface5 weight 4 (1 089 526): 0.4 s to keep 45 MiB of integers; the
# tuple-keyed table, if read, is 175 MiB and 1.3 s more
LOOKUP_GUARD_ERRORS = 1 << 22
_SHARD_SHOTS = 65536
# a shard is drawn and classified in blocks of about this many errors
# (at most a shard, at least one shot), so 64 KiB a numpy array at any p
_BLOCK_ERRORS = 8192

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


def _structural_failures(code: StabilizerCode) -> list[str]:
    return [f"{p} is not a Hermitian length-{code.n} Pauli"
            for p in code.generators + code.logical_x + code.logical_z
            if p.n != code.n or not p.is_hermitian()]


def validate_code(code: StabilizerCode) -> CodeValidation:
    """Check generator validity rules and the logical-operator relations,
    reading commutation from one `anticommutation_rows` pass.  Operators
    of the wrong length skip the algebraic checks (their flags False)."""
    gens, m, k = code.generators, code.m, code.k
    ops = gens + code.logical_x + code.logical_z
    failures = _structural_failures(code)
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


@dataclass(frozen=True)
class LookupDecoder:
    """A lookup decoder for `code`.  errors[s] corrects the syndrome s
    (bit i = syndrome bit i), packed as one int: its letter word (m
    syndrome bits, then 2k logical parities), x bits from bit m + 2k, z
    bits n above them; it is held as a read-only view.  `table`, built
    when first read, is a read-only view of the same corrections as
    PauliStrings (phases dropped), keyed by tuples of their low m bits.

    The constructor trusts its inputs; build_lookup and from_table make
    checked decoders."""

    code: StabilizerCode
    errors: Mapping[int, int]
    max_weight: int

    def __post_init__(self):
        object.__setattr__(self, "errors", MappingProxyType(self.errors))

    def __reduce__(self):  # a MappingProxyType does not pickle
        return type(self), (self.code, dict(self.errors), self.max_weight)

    def _correction(self, e: int) -> PauliString:
        """The correction that the packed error e holds."""
        n, shift = self.code.n, self.code.m + 2 * self.code.k
        return PauliString(n, e >> shift & ((1 << n) - 1), e >> (shift + n))

    @functools.cached_property
    def table(self) -> Mapping[tuple[int, ...], PauliString]:
        errors, m = self.errors.values(), self.code.m
        keys = _syndrome_keys(map(((1 << m) - 1).__and__, errors), len(errors), m)
        return MappingProxyType(dict(zip(keys, map(self._correction, errors))))

    @classmethod
    def from_table(cls, code: StabilizerCode, table: Mapping[tuple[int, ...], PauliString],
                   max_weight: int) -> LookupDecoder:
        """The decoder of a hand-built table, checked and packed once.
        ValueError names the code's first structural failure, more than
        64 generators (keys are packed in 64 bits), or the first entry
        whose key is not a tuple of m bits or whose correction is not an
        n-qubit PauliString, else the first whose correction does not
        clear its key."""
        failures = _structural_failures(code)
        if failures:
            raise ValueError(f"invalid code: {failures[0]}")
        n, m, shift = code.n, code.m, code.m + 2 * code.k
        _check_key_width(m)
        fixes = list(table.values())
        if not all(isinstance(fix, PauliString) and fix.n == n for fix in fixes):
            raise ValueError(_first_bad_entry(code, table.items()))
        words = anticommutation_rows(fixes, code.generators + code.logical_x + code.logical_z)
        keys = list(map(((1 << m) - 1).__and__, words))
        if not all(map(operator.eq, table, _syndrome_keys(keys, len(keys), m))):
            wants = _syndrome_keys(keys, len(keys), m)
            raise ValueError(_first_bad_entry(code, table.items(), wants))
        errors = {key: word | fix.x << shift | fix.z << (shift + n)
                  for key, word, fix in zip(keys, words, fixes)}
        return cls(code, errors, max_weight)


def _letter_words(code: StabilizerCode) -> list[int]:
    """word[3q + l] is letter l (0 X, 1 Y, 2 Z) on qubit q as one
    `anticommutation_rows` row against the generators, then the logical
    X and Z operators: m syndrome bits, then 2k logical parities above
    bit m.  Both are linear, so an error's word is the XOR of its
    letters' words."""
    letters = [PauliString.single(code.n, q, l) for q in range(code.n) for l in "XYZ"]
    return anticommutation_rows(letters, code.generators + code.logical_x + code.logical_z)


def _enumeration_top(n: int, max_weight: int, letters: int, what: str, verb: str) -> int:
    """The top weight, min(max_weight, n), of an enumeration of every
    error of weight <= max_weight on n qubits, `letters` letters a qubit.
    ValueError unless max_weight >= 0 and the error count is at most
    LOOKUP_GUARD_ERRORS, saying that `what` of that weight `verb` it."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    top = min(max_weight, n)  # no error outweighs the code
    count = sum(math.comb(n, w) * letters**w for w in range(top + 1))
    if count > LOOKUP_GUARD_ERRORS:
        raise ValueError(
            f"{what} of weight <= {max_weight} {verb} {count} errors, "
            f"over the limit of {LOOKUP_GUARD_ERRORS}"
        )
    return top


def _check_key_width(m: int) -> None:
    """Keys are m bits of a uint64 (_syndrome_keys, a campaign's keys)."""
    if m > 64:
        raise ValueError(f"decoder table keys are packed in 64 bits, so need "
                         f"m <= 64 generators, got m = {m}")


def _syndrome_keys(ints, count: int, m: int):
    """Yield each of the count syndromes of ints (bit i = syndrome bit i)
    as the key a table holds, a tuple with bit i at index i.  A shard's
    worth is unpacked at a time, and the tuples are made one at a time,
    to be compared or stored in turn."""
    if m == 0:  # struct cannot unpack a zero-length row
        yield from itertools.repeat((), count)
        return
    ints = iter(ints)
    for start in range(0, count, _SHARD_SHOTS):
        part = np.fromiter(ints, np.dtype("<u8"), min(_SHARD_SHOTS, count - start))
        bits = np.unpackbits(part.view(np.uint8).reshape(-1, 8)[:, :(m + 7) // 8], axis=1,
                             count=m, bitorder="little")
        yield from struct.iter_unpack(f"{m}B", bits.tobytes())


def build_lookup(code: StabilizerCode, max_weight: int) -> LookupDecoder:
    """Enumerate low-weight errors; first error per syndrome is its correction."""
    _check_key_width(code.m)
    top = _enumeration_top(code.n, max_weight, 3, "lookup table", "enumerates")
    failures = _structural_failures(code)  # as monte_carlo words it
    if failures:
        raise ValueError(f"invalid code: {failures[0]}")
    n, m = code.n, code.m
    # errors packed as LookupDecoder.errors holds them: letters on distinct
    # qubits set disjoint bits, so XOR multiplies errors (phases ignored)
    syn, shift, words = (1 << m) - 1, m + 2 * code.k, _letter_words(code)
    letters = [[words[3 * q + l] | xb << (shift + q) | zb << (shift + n + q)
                for l, (xb, zb) in enumerate(((1, 0), (1, 1), (0, 1)))]
               for q in range(n)]
    first = {0: 0}
    for w in range(1, top + 1):
        for support in itertools.combinations(range(n), w):
            # X < Y < Z product order, the support's first qubit slowest
            errors = [0]
            for q in support:
                errors = [e ^ letter for e in errors for letter in letters[q]]
            for e in errors:
                first.setdefault(e & syn, e)
    return LookupDecoder(code, first, max_weight)


def decode(dec: LookupDecoder, s: tuple[int, ...]) -> Optional[PauliString]:
    """Correction for a syndrome, or None when detected-uncorrectable.  Its
    bits compare as `table`'s keys do (1 == True == 1.0), but no table is built."""
    if len(s) != dec.code.m:
        raise ValueError(f"syndrome length {len(s)} != {dec.code.m}")
    e = dec.errors.get(sum(1 << i for i, bit in enumerate(s) if bit == 1))
    return None if e is None or not all(bit in (0, 1) for bit in s) else dec._correction(e)


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


def _first_bad_entry(code: StabilizerCode, items, wants=itertools.repeat(None)) -> str:
    """Why from_table refuses the first bad (key, correction) of items:
    a key that is not m bits, a correction that is not an n-qubit Pauli,
    or (given its correction's syndrome, want) a key the correction does
    not clear.  The caller has seen that one is bad."""
    for (key, fix), want in zip(items, wants):
        # bits compare as `decode` looks keys up: 1, True and 1.0 are one key
        if not (isinstance(key, tuple) and key.count(0) + key.count(1) == len(key) == code.m):
            return f"decoder table key {key!r} is not a {code.m}-bit syndrome"
        if not (isinstance(fix, PauliString) and fix.n == code.n):
            return (f"decoder table correction {fix} for key {key!r} "
                    f"is not a {code.n}-qubit Pauli")
        if want is not None and key != want:
            return (f"decoder table correction {fix} for key {key!r} has "
                    f"syndrome {want}, so it does not clear its key")
    raise AssertionError("no bad entry")


def _decoder_arrays(dec: LookupDecoder):
    """The campaign's tables: n, m, dec's syndromes as sorted uint64 keys
    (bit i = syndrome bit i), fix[j] the 2k logical parities of key j's
    correction, and the code's letter words.

    A decoder a campaign cannot run is refused here, in this order: a
    shot word (m + 2k bits) wider than its uint64, a code that fails
    validate_code (its first failure named), an empty table."""
    code = dec.code
    n, m, bits = code.n, code.m, code.m + 2 * code.k
    if bits > 64:
        raise ValueError(f"a shot word is packed in 64 bits, so monte_carlo needs "
                         f"m + 2k <= 64, got m + 2k = {bits}")
    report = validate_code(code)
    if not report.ok:
        raise ValueError(f"invalid code: {report.failures[0]}")
    if not dec.errors:
        raise ValueError("decoder table is empty")
    # each error's word is its low m + 2k bits
    acc = np.fromiter(map(((1 << bits) - 1).__and__, dec.errors.values()),
                      np.uint64, len(dec.errors))
    synd = acc & np.uint64((1 << m) - 1)
    order = np.argsort(synd)
    word = np.array(_letter_words(code), dtype=np.uint64)
    return n, m, synd[order], (acc >> np.uint64(m))[order], word


def _sample_errors(seeds, count: int, n: int, noise: NoiseModel):
    """Yield a shard's errors block by block: the block's shot count,
    then the non-identity letters its shots drew, in increasing (shot,
    qubit) order: shot index within the block, qubit and letter (0 X,
    1 Y, 2 Z) each.

    The shard's count * n trials, shot-major, err with probability p
    each: the first child stream of the SeedSequence `seeds` draws the
    geometric gaps between errors, and the second draws each error's
    letter as floor(3u) for a uniform u (depolarizing); bitflip errors
    are X.  Both draws take whole 64-bit words, so the errors do not
    depend on the block size, which holds about _BLOCK_ERRORS errors.
    """
    gaps, letters = (np.random.default_rng(s) for s in seeds.spawn(2))
    p, trials = noise.p, count * n
    # a block expects about _BLOCK_ERRORS errors
    block_shots = max(1, int(min(count, _BLOCK_ERRORS / (n * p) if p else count)))
    drawn, last = np.zeros(0, dtype=np.int64), -1  # errors not yet yielded; the last drawn
    for start in range(0, count, block_shots):
        block = min(block_shots, count - start)
        end = (start + block) * n
        while p > 0 and last < end:
            need = (end - last) * p
            # a gap past the shard's end ends it: clipped there, gaps sum
            # well inside int64 (geometric(1e-300) is 2^63 - 1)
            step = np.minimum(gaps.geometric(p, int(need + 4 * math.sqrt(need)) + 16),
                              trials + 1)
            more = last + np.cumsum(step)
            drawn, last = np.concatenate((drawn, more)), int(more[-1])
        cut = np.searchsorted(drawn, end)
        shot, qubit = np.divmod(drawn[:cut] - start * n, n)
        drawn = drawn[cut:]
        if noise.kind == "bitflip":
            letter = np.zeros_like(qubit)
        else:
            letter = (letters.random(cut) * 3).astype(np.intp)
        yield block, shot, qubit, letter


def _classify(acc, m: int, keys, fix):
    """Class index per shot word: 0 success, 1 logical_error, 2 detected-
    uncorrectable (its syndrome is not a table key)."""
    synd = acc & np.uint64((1 << m) - 1)
    pos = np.minimum(np.searchsorted(keys, synd), len(keys) - 1)
    # a hit leaves a residual with zero syndrome; it lies in the generator
    # span iff it also commutes with every logical operator, that is iff
    # the shot's logical parities equal its correction's
    return np.where(keys[pos] == synd, (acc >> np.uint64(m)) != fix[pos], 2)


_CLASSES = (SUCCESS, LOGICAL_ERROR, DETECTED_UNCORRECTABLE)


def _run_shard(args):
    (dec_arrays, noise, count, seed, shard_index) = args
    n, m, keys, fix, word = dec_arrays
    table = (m, keys, fix)
    # every shot that drew no error has the zero word, whose class the
    # table decides (a hand-built one may not map the zero syndrome to a
    # stabilizer)
    identity = _classify(np.zeros(1, dtype=np.uint64), *table)[0]
    counts = np.zeros(3, dtype=np.int64)
    seeds = np.random.SeedSequence([seed, shard_index])
    for block, shot, qubit, letter in _sample_errors(seeds, count, n, noise):
        starts = np.flatnonzero(np.diff(shot, prepend=-1))
        acc = np.bitwise_xor.reduceat(word[3 * qubit + letter], starts)
        # only the classes are counted, and searchsorted runs about three
        # times faster on sorted words
        acc.sort()
        counts += np.bincount(_classify(acc, *table), minlength=3)
        counts[identity] += block - len(starts)
    return dict(zip(_CLASSES, counts.tolist()))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_campaign(shots: int, seed: int, workers: Optional[int]) -> None:
    """ValueError unless shots >= 1, seed >= 0 and workers is None or >= 1."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")


def monte_carlo(
    dec: LookupDecoder,
    noise: NoiseModel,
    shots: int,
    seed: int,
    workers: Optional[int] = None,
) -> MonteCarloResult:
    """Sample errors on dec.code, decode, classify; logical failure counts
    both the logical_error class and detected-uncorrectable table misses.

    dec must hold a valid code whose shot words (m + 2k bits) fit in 64
    bits, and a non-empty table; otherwise ValueError names the first
    failure.  The tables are read from dec's packed errors (_decoder_arrays).

    Shots are processed in fixed-size shards with RNG streams derived
    from (seed, shard), so counts do not depend on the worker count.
    workers=None runs one thread per usable CPU, at most one per shard;
    on a worker's error or Ctrl-C, no worker starts another shard.  A shard
    draws only its errors (_sample_errors) and classifies them block by
    block, each shot that drew one by the XOR of its letters' words; the
    rest take the zero word's class, found once per shard.
    Each worker takes shards from one shared counter and sums its own
    counts, so no per-shard state is kept.
    """
    _check_campaign(shots, seed, workers)
    dec_arrays = _decoder_arrays(dec)
    shards = -(-shots // _SHARD_SHOTS)
    next_shard = itertools.count()  # advances atomically, shared by the workers
    stop = threading.Event()  # set once a worker fails or the caller stops waiting

    def work() -> dict[str, int]:
        # each worker sums its own shards' counts, so the bookkeeping is
        # O(workers) at any shot count
        total = dict.fromkeys(_CLASSES, 0)
        try:
            while not stop.is_set() and (idx := next(next_shard)) < shards:
                count = min(_SHARD_SHOTS, shots - idx * _SHARD_SHOTS)
                got = _run_shard((dec_arrays, noise, count, seed, idx))
                for key in _CLASSES:
                    total[key] += got[key]
        finally:  # a worker that fails, or finds no shard left, stops the others
            stop.set()
        return total

    workers = min(_usable_cpus() if workers is None else workers, shards)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            futures = [pool.submit(work) for _ in range(workers)]
            totals = [future.result() for future in futures]
        finally:  # on a worker's error or Ctrl-C, the caller stops waiting
            stop.set()
    counts = {key: sum(total[key] for total in totals) for key in _CLASSES}
    failures = counts[LOGICAL_ERROR] + counts[DETECTED_UNCORRECTABLE]
    return MonteCarloResult(
        shots=shots,
        seed=seed,
        counts=counts,
        p_logical_estimate=failures / shots,
        wilson_95_interval=wilson_interval(failures, shots),
    )


@dataclass(frozen=True)
class FailureCounts:
    """counts[w] is, for every weight w <= max_weight, how many errors of
    weight w fall in each class of (success, logical_error,
    detected_uncorrectable); bitflip errors are X only, depolarizing ones
    take X, Y or Z on each qubit of their support."""

    n: int
    kind: str
    counts: tuple[tuple[int, int, int], ...]

    def p_logical_bounds(self, p: float) -> tuple[float, float]:
        """Bounds on the exact p_L at error rate p.  The lower is
        sum_w F_w q^w (1 - p)^(n - w) over the enumerated weights, F_w
        the logical_error and detected-uncorrectable counts and q = p/3
        (depolarizing) or p (bitflip); the upper adds the binomial
        probability that more than max_weight qubits err."""
        NoiseModel(self.kind, p)  # names a p outside [0, 1]
        n, q = self.n, p / 3 if self.kind == "depolarizing" else p
        low = math.fsum((logical + detected) * q**w * (1 - p) ** (n - w)
                        for w, (_, logical, detected) in enumerate(self.counts))
        tail = math.fsum(math.comb(n, w) * p**w * (1 - p) ** (n - w)
                         for w in range(len(self.counts), n + 1))
        return low, low + tail


def failure_counts(dec: LookupDecoder, kind: str, max_weight: int) -> FailureCounts:
    """Classify every error of weight <= max_weight on dec.code as
    monte_carlo classifies a shot, by the XOR of its letters' words.
    Each error is the letter on its lowest qubit q times an error of one
    less weight on the qubits above q, so walking q from n - 1 down to 0
    builds every error's word from words already made, keeping only
    those of weight below the top; each batch is classified as it is
    made.  dec is checked as monte_carlo checks it, and the enumeration
    count answers to LOOKUP_GUARD_ERRORS, as build_lookup's does."""
    NoiseModel(kind, 0.0)  # names an unknown kind
    letters = 1 if kind == "bitflip" else 3
    top = _enumeration_top(dec.code.n, max_weight, letters, "failure counts", "enumerate")
    n, m, keys, fix, word = _decoder_arrays(dec)
    # above[w]: the words of every weight-w error on the qubits above q
    above = [np.zeros(1, dtype=np.uint64)] + [np.zeros(0, dtype=np.uint64)] * (top - 1)
    tally = np.zeros((top + 1, 3), dtype=np.int64)
    tally[0] = np.bincount(_classify(above[0], m, keys, fix), minlength=3)
    for q in range(n - 1, -1, -1):
        # heaviest first, so each batch extends words that avoid qubit q
        for w in range(top, 0, -1):
            batch = (above[w - 1][:, None] ^ word[3 * q:3 * q + letters]).ravel()
            tally[w] += np.bincount(_classify(batch, m, keys, fix), minlength=3)
            if w < top:
                above[w] = np.concatenate((above[w], batch))
    return FailureCounts(n, kind, tuple(map(tuple, tally.tolist())))


def repetition_failure_rate(n: int, p: float) -> float:
    """Analytic bit-flip failure probability: majority vote loses when
    more than (n-1)/2 qubits flip."""
    t = (n - 1) // 2
    total = 0.0
    for k in range(t + 1, n + 1):
        total += math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return total
