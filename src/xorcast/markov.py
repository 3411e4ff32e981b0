"""Absorbing Markov chains for greedy XOR multicast to three clients.

Two chain families live here. The aggregated chains for k=2 (12 states) and
k=3 (29 states) have hand-entered transition matrices whose entries are exact
bivariate polynomials in (s, p); storing them symbolically lets the row-sum
identity sum == 1 under p = 1-s be checked with integer arithmetic, which
catches entry slips that numeric spot checks would miss. The fine-grained
chain is the independent oracle they are validated against: the joint decoder
states under greedy, closed as integer codes of gf2.subspace_table index triples.

Both chains keep sparse rows {j: entry}, and every off-diagonal transition goes
to a higher index (it strictly raises total rank). The last state can then only
return to itself: it is the absorbing one. (I - Q) mu = 1 is triangular, and one
reverse pass mu_i = (1 + sum_{j>i} a_ij mu_j) / sum_{j>i} a_ij solves it
(1 - a_ii would cancel near p = 1). The pass runs in the arithmetic of p, so a
fractions.Fraction p gives the exact rational expectation:

    expected_absorption_time(build_chain(2), Fraction(1, 2)) == Fraction(17620, 3087)
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb, fsum

from .bounds import _as_int, _check_loss
from .gf2 import subspace_table
from .policy import _scan_spans

RESIDUAL_TOL = 1e-9

# Joint-state space grows as the cube of the subspace count of GF(2)^k; closure
# size and build time make 4 the desk limit.
MAX_FINE_DIM = 4


class SolverError(RuntimeError):
    """Chain breaks the ordering contract or the solve fails its residual check."""


_TERM_RE = re.compile(r"^(\d*)(?:s(\d*))?(?:p(\d*))?$")


def _parse_terms(text: str) -> list[tuple[int, int, int]]:
    """Parse entries like '3s2p', 'p3+sp2', '2sp(s+p)' into (coef, s_pow, p_pow)."""
    monomials: list[tuple[int, int, int]] = []
    cleaned = text.replace(" ", "").replace("(s+p)", "~")
    for term in cleaned.split("+"):
        factor_sp = term.endswith("~")
        if factor_sp:
            term = term[:-1]
        m = _TERM_RE.match(term)
        if not m or not term:
            raise ValueError(f"bad transition term {term!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        s_pow = (int(m.group(2)) if m.group(2) else 1) if m.group(2) is not None else 0
        p_pow = (int(m.group(3)) if m.group(3) else 1) if m.group(3) is not None else 0
        if factor_sp:
            monomials.append((coef, s_pow + 1, p_pow))
            monomials.append((coef, s_pow, p_pow + 1))
        else:
            monomials.append((coef, s_pow, p_pow))
    return monomials


@dataclass(frozen=True)
class TransitionPoly:
    """One transition probability as an exact sum of c * s^a * p^b monomials."""

    monomials: tuple[tuple[int, int, int], ...]

    @classmethod
    def parse(cls, text: str) -> "TransitionPoly":
        return cls(tuple(_parse_terms(text)))

    def evaluate(self, p: float) -> float:
        s = 1 - p
        return sum(c * s**a * p**b for c, a, b in self.monomials)


@dataclass(frozen=True)
class MarkovChainSpec:
    """Aggregated chain: labeled states and sparse symbolic transition rows."""

    k: int
    descriptions: tuple[str, ...]
    transitions: tuple[dict[int, TransitionPoly], ...]

    @property
    def n_states(self) -> int:
        return len(self.descriptions)


# Aggregated chain for k=2. Rows indexed by state, sparse {column: entry}.
_K2_DESCRIPTIONS = (
    "ranks (0,0,0)",
    "ranks (1,0,0)",
    "ranks (1,1,0), 1 distinct dependent codeword",
    "ranks (2,0,0)",
    "ranks (1,1,0), 2 distinct dependent codewords",
    "ranks (1,1,1), at most 2 distinct dependent codewords",
    "ranks (2,1,0)",
    "ranks (1,1,1), 3 distinct dependent codewords (no all-client codeword)",
    "ranks (2,1,1)",
    "ranks (2,2,0)",
    "ranks (2,2,1)",
    "ranks (2,2,2), absorbing",
)

_K2_ROWS: tuple[dict[int, str], ...] = (
    {0: "p3", 1: "3sp2", 2: "3s2p", 5: "s3"},
    {1: "p3", 3: "sp2", 4: "2sp2", 5: "s2p", 6: "2s2p", 8: "s3"},
    {2: "p3", 5: "sp2", 6: "2sp2", 8: "2s2p", 9: "s2p", 10: "s3"},
    {3: "p2", 6: "2sp", 8: "s2"},
    {4: "p3", 6: "2sp2", 7: "sp2", 8: "2s2p", 9: "s2p", 10: "s3"},
    {5: "p3", 8: "3sp2", 10: "3s2p", 11: "s3"},
    {6: "p2", 8: "sp", 9: "sp", 10: "s2"},
    {7: "p3+sp2", 8: "2sp2+2s2p", 10: "s3+s2p"},
    {8: "p2", 10: "2sp", 11: "s2"},
    {9: "p", 10: "s"},
    {10: "p", 11: "s"},
    {11: "1"},
)

# Aggregated chain for k=3.
_K3_DESCRIPTIONS = (
    "ranks (0,0,0)",
    "ranks (1,0,0)",
    "ranks (1,1,0), 1 distinct dependent codeword",
    "ranks (2,0,0)",
    "ranks (1,1,0), 2 distinct dependent codewords",
    "ranks (2,1,0), 3 distinct dependent codewords",
    "ranks (2,1,0), 4 distinct dependent codewords",
    "ranks (3,0,0)",
    "ranks (1,1,1), 1 distinct dependent codeword",
    "ranks (1,1,1), 2 distinct dependent codewords",
    "ranks (1,1,1), 3 distinct dependent codewords",
    "ranks (2,1,1)",
    "ranks (2,2,0), dependent count other than 5",
    "ranks (3,1,0)",
    "ranks (2,2,0), 5 distinct dependent codewords",
    "ranks (2,1,1), 4 distinct dependent codewords",
    "ranks (2,1,1), 3 or 5 distinct dependent codewords",
    "ranks (2,2,1)",
    "ranks (3,1,1)",
    "ranks (3,2,0)",
    "ranks (2,2,1), 5 or 6 distinct dependent codewords",
    "ranks (2,2,2), 2 to 6 distinct dependent codewords",
    "ranks (3,2,1)",
    "ranks (3,3,0)",
    "ranks (2,2,2), 7 distinct dependent codewords (no all-client codeword)",
    "ranks (3,2,2)",
    "ranks (3,3,1)",
    "ranks (3,3,2)",
    "ranks (3,3,3), absorbing",
)

_K3_ROWS: tuple[dict[int, str], ...] = (
    {0: "p3", 1: "3sp2", 2: "3s2p", 8: "s3"},
    {1: "p3", 3: "sp2", 4: "2sp2", 5: "2s2p", 9: "s2p", 16: "s3"},
    {2: "p3", 5: "2sp2", 9: "sp2", 11: "2s2p", 12: "s2p", 17: "s3"},
    {3: "p3", 6: "2sp2", 7: "sp2", 11: "s2p", 13: "2s2p", 18: "s3"},
    {4: "p3", 6: "2sp2", 10: "sp2", 14: "s2p", 15: "2s2p", 20: "s3"},
    {5: "p3", 13: "sp2", 14: "sp2", 15: "sp2", 17: "s2p", 18: "s2p", 19: "s2p", 22: "s3"},
    {6: "p3", 13: "sp2", 14: "sp2", 16: "sp2", 17: "s2p", 18: "s2p", 19: "s2p", 22: "s3"},
    {7: "p2", 13: "2sp", 18: "s2"},
    {8: "p3", 16: "3sp2", 17: "3s2p", 21: "s3"},
    # w outside span{a,b} (a shared, b lone): lone receiver -> 11, a sharer -> 15 (its span holds a)
    {9: "p3", 11: "sp2", 15: "2sp2", 17: "3s2p", 21: "s3"},
    {10: "p3", 15: "2sp2", 16: "sp2", 17: "3s2p", 21: "s3"},
    {11: "p3", 17: "2sp2", 18: "sp2", 21: "s2p", 22: "2s2p", 25: "s3"},
    {12: "p3", 17: "sp2", 19: "2sp2", 22: "2s2p", 23: "s2p", 26: "s3"},
    {13: "p2", 18: "sp", 19: "sp", 22: "s2"},
    {14: "p3", 19: "2sp2", 20: "sp2", 22: "2s2p", 23: "s2p", 26: "s3"},
    {15: "p3", 17: "sp2", 18: "sp2", 20: "sp2", 21: "s2p", 22: "2s2p", 25: "s3"},
    {16: "p3", 18: "sp2", 20: "2sp2", 21: "s2p", 22: "2s2p", 25: "s3"},
    {17: "p3", 21: "sp2", 22: "2sp2", 25: "2s2p", 26: "s2p", 27: "s3"},
    {18: "p2", 22: "2sp", 25: "s2"},
    {19: "p2", 22: "sp", 23: "sp", 26: "s2"},
    {20: "p3", 22: "2sp2", 24: "sp2", 25: "2s2p", 26: "s2p", 27: "s3"},
    {21: "p3", 25: "3sp2", 27: "3s2p", 28: "s3"},
    {22: "p2", 25: "sp", 26: "sp", 27: "s2"},
    {23: "p", 26: "s"},
    {24: "p2(s+p)", 25: "2sp(s+p)", 27: "s2(s+p)"},
    {25: "p2", 27: "2sp", 28: "s2"},
    {26: "p", 27: "s"},
    {27: "p", 28: "s"},
    {28: "1"},
)


def _assemble(k: int, descriptions, rows) -> MarkovChainSpec:
    transitions = tuple({j: TransitionPoly.parse(text) for j, text in sorted(row.items())}
                        for row in rows)
    return MarkovChainSpec(k=k, descriptions=tuple(descriptions), transitions=transitions)


def build_chain(k: int) -> MarkovChainSpec:
    """Aggregated chain for k packets, k = 2 or 3; cached and shared: treat it as immutable."""
    return _aggregated_chain(_as_int("k", k, 2, 3))  # ahead of the cache: 2.0 == 2 there


@lru_cache(maxsize=None)
def _aggregated_chain(k: int) -> MarkovChainSpec:
    return _assemble(k, *{2: (_K2_DESCRIPTIONS, _K2_ROWS), 3: (_K3_DESCRIPTIONS, _K3_ROWS)}[k])


def row_sum_coeffs(chain: MarkovChainSpec, i: int) -> list[int]:
    """Integer s-polynomial coefficients of row i's sum after p = 1 - s."""
    monomials = [m for entry in chain.transitions[i].values() for m in entry.monomials]
    out = [0] * (max((a + b for _, a, b in monomials), default=0) + 1)
    for c, a, b in monomials:  # c s^a p^b = c s^a (1 - s)^b
        for j in range(b + 1):
            out[a + j] += c * (-1) ** j * comb(b, j)
    return out


def check_conservation(chain: MarkovChainSpec) -> None:
    """Raise if any row fails the exact sum == 1 polynomial identity."""
    for i in range(chain.n_states):
        coeffs = row_sum_coeffs(chain, i)
        if coeffs[0] != 1 or any(c != 0 for c in coeffs[1:]):
            raise AssertionError(f"row {i} sums to polynomial {coeffs}, expected [1]")


def expected_absorption_time(chain: MarkovChainSpec | FineChain, p: float) -> float:
    """Exact expected transmissions from state 0 until all clients reach full rank,
    in the last state, which is absorbing; a Fraction p gives a Fraction."""
    p = _check_loss(p)
    mu = [0 * p] * chain.n_states  # 0 at the absorbing state, which the pass skips
    values = {}  # keyed by id: the chain holds every entry for the whole solve
    for i in range(chain.n_states - 2, -1, -1):
        exits, off = [], 0 * p
        for j, entry in chain.transitions[i].items():
            if j < i:
                raise SolverError(f"transition {i} -> {j} goes to a lower index")
            value = values.get(id(entry))
            if value is None:
                value = values[id(entry)] = entry.evaluate(p)
            if j != i:
                exits.append(value)
                off += value * mu[j]
        leave = (fsum if isinstance(p, float) else sum)(exits)  # a Fraction stays exact
        if leave == 0:
            raise SolverError(f"transient state {i} never leaves itself")
        mu[i] = (1 + off) / leave
        residual = abs(leave * mu[i] - off - 1)
        if not residual <= RESIDUAL_TOL:
            raise SolverError(f"absorption solve residual {float(residual):.3e} in row {i}")
    return mu[0]


# the oracle's solve, its own module attribute so that it is timed or replaced apart
absorption_time_fine = expected_absorption_time


@dataclass(frozen=True)
class FineChain:
    """Joint decoder-state chain under the greedy policy; the validation oracle.

    states are triples of RREF basis-row tuples, index 0 the all-empty state,
    sorted stably by total rank, so the last state is absorbing: every client
    at full rank. choices[i] is the greedy codeword of state i.
    mask_successors[i][m] is the successor when reception mask m (bit c set =
    client c received) occurs; transitions count the 8 masks per successor
    and number of receptions into polynomial entries, shared between rows.
    """

    k: int
    tie_break: str
    states: tuple[tuple[tuple[int, ...], ...], ...]
    choices: tuple[int | None, ...]
    mask_successors: tuple[tuple[int, ...] | None, ...]
    transitions: tuple[dict[int, TransitionPoly], ...]

    @property
    def n_states(self) -> int:
        return len(self.states)


def _row_shape(grow: int) -> tuple[list[int], list[int], list[TransitionPoly]]:
    """(reps, slots, polys) for the clients in bit pattern grow gaining rank: the successor
    under mask m depends only on m & grow, whose values reps lists as first met over m = 0..7;
    slots[m] indexes m & grow in reps, and polys[t] sums s^|m| p^(3-|m|) over slot t's m."""
    reps = sorted({m & grow for m in range(8)})  # a submask first appears as itself
    slots = [reps.index(m & grow) for m in range(8)]
    counts = [Counter(m.bit_count() for m in range(8) if slots[m] == t) for t in range(len(reps))]
    polys = [TransitionPoly(tuple(sorted((c, a, 3 - a) for a, c in n.items()))) for n in counts]
    return reps, slots, polys


def build_fine_chain(k: int, tie_break: str = "smallest") -> FineChain:
    """Breadth-first closure of joint states reachable from empty under greedy.

    State (a, b, c) of subspace_table(k) indices is the code (a*S + b)*S + c, S
    the subspace count. Greedy w ignores client order, so it is scanned once per
    sorted triple; mask m's successor adds the digit steps nxt[span][w] - span of
    the clients that received. Treat the result as immutable; it is cached and shared.
    """
    return _fine_chain(_as_int("k", k, 1, MAX_FINE_DIM), tie_break)


@lru_cache(maxsize=None)
def _fine_chain(k: int, tie_break: str) -> FineChain:
    bases, members, nxt = subspace_table(k)
    size = len(bases)
    full, square, top = size - 1, size * size, size**3 - 1  # top: every span full
    shapes = [_row_shape(grow) for grow in range(8)]
    codes, index, picks = [0], {0: 0}, {}  # picks: greedy w per sorted span triple
    states, moves = [], []  # moves: [w, slots, polys, *successor ids] or None
    for code in codes:  # grows as new states are found
        a, bc = divmod(code, square)
        b, c = divmod(bc, size)
        states.append((bases[a], bases[b], bases[c]))
        if code == top:
            moves.append(None)
            continue
        key = tuple(sorted((a, b, c)))
        if key not in picks:
            picks[key] = _scan_spans([members[s] for s in key if s != full], k, tie_break)[0]
        w = picks[key]
        # digit steps of clients a, b, c, taken under reception mask bits 1, 2, 4
        da, db, dc = (nxt[a][w] - a) * square, (nxt[b][w] - b) * size, nxt[c][w] - c
        step = (0, da, db, da + db, dc, da + dc, db + dc, da + db + dc)
        grow = (da != 0) | (db != 0) << 1 | (dc != 0) << 2
        ids = []
        for rep in shapes[grow][0]:
            ids.append(index.setdefault(code + step[rep], len(codes)))
            if ids[-1] == len(codes):  # a new code, given the next id
                codes.append(code + step[rep])
        moves.append([w, *shapes[grow][1:], *ids])
    if top not in index:
        raise SolverError("fine chain closure never reached the full-rank state")
    del codes, index  # rows need only the discovery ids: free the lookup first (peak memory)

    # Stable sort by total rank, which every non-self transition raises: the
    # solver's ordering contract then holds and the empty state stays at 0.
    order = sorted(range(len(states)), key=lambda i: sum(map(len, states[i])))
    position = sorted(range(len(order)), key=order.__getitem__)  # the inverse of order
    choices, mask_successors, transitions = [], [], []
    for old in order[:-1]:  # the full state, alone at rank 3k, sorts last
        (w, slots, polys, *ids), moves[old] = moves[old], None  # freed as read: peak memory
        succ = [position[j] for j in ids]
        choices.append(w)
        mask_successors.append(tuple([succ[t] for t in slots]))
        transitions.append(dict(zip(succ, polys)))
    return FineChain(k=k, tie_break=tie_break, states=tuple(states[old] for old in order),
                     choices=(*choices, None), mask_successors=(*mask_successors, None),
                     transitions=(*transitions, {len(order) - 1: TransitionPoly.parse("1")}))
