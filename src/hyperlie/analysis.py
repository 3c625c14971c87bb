"""Neighborhoods, parts, transitivity cross-checks, the stabilized
intersection relation, and the brute-force smallest-relation oracle."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import count

from .errors import (
    InternalInvariant,
    NoSolvableQuotient,
    NotLie,
    NotWellDefined,
    TooLarge,
)
from .quotients import (
    quotient_field,
    quotient_lie_algebra,
    require_char_not_2,
    solvable_length,
)
from .relations import (
    DEFAULT_BOUNDS,
    ExpressionBounds,
    Partition,
    closed_relation,
    hyper_derived_sets,
    is_strongly_regular,
    sn_pair_levels,
)
from .sets import full_mask, iter_bits, mask_of
from .structures import FiniteLieHyperalgebra


@dataclass(frozen=True)
class NeighborhoodSet:
    """P(x): everything related to the base element at the given bounds."""

    x: int
    members: int
    bounds: ExpressionBounds

    def __post_init__(self):
        if not self.members >> self.x & 1:
            raise InternalInvariant("x must belong to P(x)")


@dataclass(frozen=True)
class SnPartVerdict:
    is_part: bool
    # on failure: (value set meeting K, permuted value set escaping K)
    witness: tuple | None
    bounds: ExpressionBounds

    def __post_init__(self):
        if self.is_part == (self.witness is not None):
            raise InternalInvariant("witness present iff not a part")


def neighborhood_P(L: FiniteLieHyperalgebra, n: int, x: int,
                   bounds: ExpressionBounds = DEFAULT_BOUNDS) -> NeighborhoodSet:
    rel, _ = closed_relation(L, "Sn", n, bounds)
    return NeighborhoodSet(x, rel.row(x), bounds)


def _first_escape(levels, K: int):
    """First (X, Y) pair, simplest sums first, with X meeting K and Y
    escaping it."""
    for lvl in levels:
        for X, Y in lvl:
            if X & K and Y & ~K:
                return X, Y
    return None


def is_Sn_part(L: FiniteLieHyperalgebra, n: int, K: int,
               bounds: ExpressionBounds = DEFAULT_BOUNDS) -> SnPartVerdict:
    """Closure of K under related values, checked on relation rows.

    The witness is the pair of expression value sets (one meeting K, its
    permuted partner leaving K) found among the fewest-summand sums first.
    """
    if K == 0:
        raise InternalInvariant("K must be non-empty")
    rel, _ = closed_relation(L, "Sn", n, bounds)
    if not any(rel.row(x) & ~K for x in iter_bits(K)):
        return SnPartVerdict(True, None, bounds)
    wit = _first_escape(sn_pair_levels(L, n, bounds), K)
    if wit is None:
        raise InternalInvariant("row escape without a generating pair")
    return SnPartVerdict(False, wit, bounds)


def _K_sample(L: FiniteLieHyperalgebra, part: Partition, seed: int):
    n = L.size
    if n <= 5:
        return [k for k in range(1, 1 << n)]
    out = []
    # all unions of closure classes, capped combinatorially by class count
    k = part.num_classes
    if k <= 12:
        for sel in range(1, 1 << k):
            m = 0
            for ci in iter_bits(sel):
                m |= part.classes[ci]
            out.append(m)
    else:
        out.extend(part.classes)
        out.append(full_mask(n))
    rng = random.Random(seed)
    for _ in range(40):
        size = rng.randrange(1, n + 1)
        out.append(mask_of(rng.sample(range(n), size)))
    return out


def lemma_equivalence_check(L: FiniteLieHyperalgebra, n: int,
                            bounds: ExpressionBounds = DEFAULT_BOUNDS,
                            seed: int = 0):
    """Evaluate the three part characterizations independently per subset.

    (i) every expression pair meeting K stays in K, (ii) every relation row
    from K stays in K, (iii) K is a union of closure classes. Returns a
    report dict; any disagreement is a bug-class finding, never silently
    dropped. K runs over every nonempty subset when |L| <= 5, else over
    unions of closure classes and 40 subsets drawn from seed.
    """
    rel, part = closed_relation(L, "Sn", n, bounds)
    levels = sn_pair_levels(L, n, bounds)
    sample = _K_sample(L, part, seed)
    disagreements = []
    verdicts = []
    for K in sample:
        v1 = _first_escape(levels, K) is None
        v2 = all(not (rel.row(x) & ~K) for x in iter_bits(K))
        v3 = all(
            part.classes[ci] & ~K == 0
            for ci in {part.class_of[x] for x in iter_bits(K)}
        )
        verdicts.append(v1)
        if not (v1 == v2 == v3):
            disagreements.append({"K": K, "i": v1, "ii": v2, "iii": v3})
    return {
        "checked": len(sample),
        "true_verdicts": sum(verdicts),
        "disagreements": disagreements,
        "all_agree": not disagreements,
        "bounds": bounds.astuple(),
    }


def is_transitive_Sn(L: FiniteLieHyperalgebra, n: int,
                     bounds: ExpressionBounds = DEFAULT_BOUNDS):
    """Transitivity of the bounded relation, cross-checked three ways.

    (i) pair-set transitivity, (ii) each row equals its closure class,
    (iii) each row is itself a part. The three must agree; (i) is returned.
    """
    rel, part = closed_relation(L, "Sn", n, bounds)
    r1 = all(
        not (rel.row(y) & ~rel.row(x))
        for x in range(L.size)
        for y in iter_bits(rel.row(x))
    )
    r2 = all(rel.row(x) == part.class_mask_of(x) for x in range(L.size))
    r3 = all(
        is_Sn_part(L, n, rel.row(x), bounds).is_part for x in range(L.size)
    )
    if not (r1 == r2 == r3):
        raise InternalInvariant(
            f"transitivity routes disagree: direct={r1} classes={r2} parts={r3}"
        )
    return r1, {"direct": r1, "row_vs_class": r2, "rows_are_parts": r3,
                "bounds": bounds.astuple()}


def relation_S(L: FiniteLieHyperalgebra,
               bounds: ExpressionBounds = DEFAULT_BOUNDS):
    """Intersection of the depth-gated closures, with its least depth m.

    Walks n = 1, 2, ... and stops on a proof that no later closure differs:
    the next gate repeats (Sn depends on n only through its gate), or the
    closure is the diagonal, which every later closure refines and so
    equals. The chain refines monotonically, so the intersection is the
    last closure, and m is the least depth at which it appears. A chain of
    nonempty gates repeats within |L| steps. Returns (Partition, m).
    """
    gates = hyper_derived_sets(L, L.size)
    parts = []
    for n in count(1):
        _, part = closed_relation(L, "Sn", n, bounds)
        if parts and not part.refines(parts[-1]):
            raise InternalInvariant("depth chain is not refining")
        parts.append(part)
        if part.is_diagonal() or gates[n] == gates[n - 1]:
            break
    if reduce(Partition.meet, parts) != part:
        raise InternalInvariant("intersection differs from the limit")
    return part, parts.index(part) + 1


def bell_number(n: int) -> int:
    if n <= 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def iter_partitions_rgs(n: int):
    """All partitions of range(n) as class-mask lists, restricted-growth
    lexicographic order."""
    a = [0] * n

    def rec(i: int, maxv: int):
        if i == n:
            k = maxv + 1
            masks = [0] * k
            for x, c in enumerate(a):
                masks[c] |= 1 << x
            yield masks
            return
        for v in range(maxv + 2):
            a[i] = v
            yield from rec(i + 1, max(maxv, v))

    if n == 0:
        return
    yield from rec(1, 0)


def smallest_solvable_oracle(L: FiniteLieHyperalgebra,
                             bounds: ExpressionBounds = DEFAULT_BOUNDS):
    """Exhaustive minimality certificate for the stabilized intersection.

    Enumerates every carrier partition, keeps the strongly regular ones
    whose quotient over the field's own scalars is a solvable Lie algebra,
    and asserts the engine's intersection relation is the unique finest
    kept partition. Returns (Partition, certificate dict).
    """
    if L.size > 6:
        raise TooLarge(
            f"oracle enumerates Bell(carrier); {L.size} > 6 is off the desk"
        )
    # pre-flight the scalar side: a degenerate or ill-defined field quotient
    # fails here once, not once per partition
    require_char_not_2(quotient_field(L.field, Partition.diagonal(L.field.size)))
    engine_S, m = relation_S(L, bounds)
    qualifying = []
    checked = 0
    for masks in iter_partitions_rgs(L.size):
        checked += 1
        part = Partition(masks)
        ok, _ = is_strongly_regular(L, part)
        if not ok:
            continue
        try:
            A = quotient_lie_algebra(L, part)
        except (NotWellDefined, NotLie):
            # the congruence lemma promises this never happens for strongly
            # regular partitions; a hit is a bug, not a skip
            raise InternalInvariant(
                "strongly regular partition failed to quotient"
            )
        if solvable_length(A) is None:
            continue
        qualifying.append(part)
    if not qualifying:
        raise NoSolvableQuotient("no strongly regular partition has a solvable quotient")
    if checked != bell_number(L.size):
        raise InternalInvariant("partition enumeration is incomplete")
    agrees = any(p == engine_S for p in qualifying) and all(
        engine_S.refines(p) for p in qualifying
    )
    if not agrees:
        raise InternalInvariant(
            "engine intersection relation is not the minimum of the oracle set"
        )
    certificate = {
        "minimal_classes": engine_S.classes_as_names(L.names),
        "qualifying_partitions": len(qualifying),
        "checked_partitions": checked,
        "agrees_with_engine": True,
    }
    return engine_S, certificate


def nontransitivity_search(named_structures, ns=(1, 2, 3),
                           bounds: ExpressionBounds = DEFAULT_BOUNDS):
    """Deterministic sweep for a non-transitive bounded relation.

    named_structures is a list of (name, L). Returns (findings, log lines);
    findings hold every combination whose relation fails transitivity.
    """
    findings = []
    log = [f"bounds={bounds.astuple()} depths={list(ns)}"]
    for name, L in named_structures:
        for n in ns:
            verdict, report = is_transitive_Sn(L, n, bounds)
            rel, _ = closed_relation(L, "Sn", n, bounds)
            log.append(
                f"{name} n={n} pairs={rel.pair_count} transitive={verdict}"
            )
            if not verdict:
                findings.append({"structure": name, "n": n, "report": report})
    log.append(f"findings={len(findings)}")
    return findings, log
