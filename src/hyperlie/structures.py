"""Finite hyperstructures: hypergroups, hyperfields, Lie hyperalgebras.

Carriers are indexed 0..n-1; every hyperoperation table cell is an int
bitmask over the carrier (see sets.py). Checkers decide each axiom over the
whole carrier, never by sampling. Each law shape (associativity, left and
right distributivity, homogeneity, Jacobi) is one loop in laws.py, shared
with the classical validators of gf and quotients, and the checkers run it
on a view of the operations that they pick once per call: the
element-index tables when every table is singleton-valued, the SetOps set
lifts otherwise. Both views decide every instance alike, but on
element-index tables laws.on_generators proves seven Lie laws on additive
generators, and only the other laws loop.
reevaluate replays single instances independently of both views and of
the shape loops: LAWS is a separate statement of each witnessed axiom, as
equations between expression trees, and evaluate computes a tree from the
raw mask tables, through no SetOps.
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import chain, product

from .errors import (
    AxiomFailure,
    CarrierCapExceeded,
    FieldMismatch,
    HyperlieError,
    MalformedTable,
)
from .laws import (
    associates_at,
    associativity,
    homogeneity,
    identity,
    jacobi,
    left_distributivity,
    on_generators,
    right_distributivity,
    spanning_tree,
)
from .sets import SetOps, full_mask, is_singleton, iter_bits, setwise

DEFAULT_CARRIER_CAP = 256


def carrier_cap() -> int:
    raw = os.environ.get("HYPERLIE_MAX_CARRIER")
    if raw is None:
        return DEFAULT_CARRIER_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CarrierCapExceeded(f"HYPERLIE_MAX_CARRIER not an int: {raw!r}")
    if cap < 1:
        raise CarrierCapExceeded(f"HYPERLIE_MAX_CARRIER must be >= 1, got {cap}")
    return cap


def check_carrier_size(size: int) -> None:
    cap = carrier_cap()
    if size > cap:
        raise CarrierCapExceeded(f"carrier size {size} exceeds cap {cap}")


def _carrier(names):
    """The element names as a list, refused when empty, over the cap or repeated."""
    names = list(names)
    if not names:
        raise MalformedTable("empty carrier")
    check_carrier_size(len(names))
    if len(set(names)) != len(names):
        raise MalformedTable("duplicate element names")
    return names


def _intake(table, rows, cols, size, what, elt=None):
    """The mask table with its element-index form, or None in its place
    unless every cell is a singleton. An element-index form elt passed in
    is trusted, and the tables owned, as the parser and the generators
    build them; any other table is checked and copied by _checked."""
    return (table, elt) if elt is not None else _checked(table, rows, cols, size, what)


def _checked(table, rows, cols, size, what):
    """Checked copy of a mask table, with its element-index form or None.
    A table of int cells that all hit {1 << i: i} is checked by that map
    alone, which also gives the element-index form; any other table is
    checked cell by cell."""
    if len(table) != rows:
        raise MalformedTable(f"{what}: expected {rows} rows, got {len(table)}")
    masks = [list(row) for row in table]
    if {int}.issuperset(map(type, chain.from_iterable(masks))):
        index_of = {1 << i: i for i in range(size)}.get
        elt = [list(map(index_of, row)) for row in masks]
        if all(len(row) == cols and None not in row for row in elt):
            return masks, elt
    cap = full_mask(size)
    for i, row in enumerate(masks):
        if len(row) != cols:
            raise MalformedTable(f"{what}[{i}]: expected {cols} cols, got {len(row)}")
        for j, cell in enumerate(row):
            if not isinstance(cell, int) or not 0 < cell <= cap:
                raise MalformedTable(
                    f"{what}[{i}][{j}]: cell must be a nonempty subset mask, got {cell!r}"
                )
    if any(c & (c - 1) for row in masks for c in row):
        return masks, None
    return masks, [[c.bit_length() - 1 for c in row] for row in masks]


def _commutative(table) -> bool:
    return [list(col) for col in zip(*table)] == table


def _associative(S) -> bool:
    """Whether + associates: by Light's test if zero is an identity, else setwise."""
    add, zero, ops, n = S.add_elt, S.zero, SetOps(S.add), S.size
    if add and zero is not None and add[zero] == [r[zero] for r in add] == list(range(n)):
        return associates_at(add, product(range(n), spanning_tree(add, zero)[0]))
    vals = [1 << x for x in range(n)]
    return next(associativity(ops, ops, vals, vals), None) is None


class Hypergroup:
    """Carrier with one hyperoperation. Names double as JSON element ids."""

    def __init__(self, names, add, *, elt=(None,)):
        self.names = _carrier(names)
        self.size = n = len(self.names)
        self.add, self.add_elt = _intake(add, n, n, n, "add", elt[0])
        self.add_ops = SetOps(self.add)
        self.index = {nm: i for i, nm in enumerate(self.names)}


class FiniteHyperfield:
    """Hyperfield: additive hypergroup, multiplicative hypergroup on F\\{0}.

    zero and one are located from the tables (additive identity with
    singleton sums; multiplicative identity on nonzero elements). Location
    failures surface later in check_hyperfield, not here, so malformed
    candidates can still be inspected.
    """
    associative_add = cached_property(_associative)

    def __init__(self, names, add, mul, gf_order=None, *, elt=(None, None)):
        self.names = _carrier(names)
        self.size = n = len(self.names)
        self.add, self.add_elt = _intake(add, n, n, n, "add", elt[0])
        self.mul, self.mul_elt = _intake(mul, n, n, n, "mul", elt[1])
        self.add_ops = SetOps(self.add)
        self.mul_ops = SetOps(self.mul)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        singletons = [1 << x for x in range(n)]
        self.zero = identity(self.add, range(n), singletons)
        self.one = identity(self.mul, [x for x in range(n) if x != self.zero], singletons)
        self.is_trivial = self.add_elt is not None and self.mul_elt is not None
        self.commutative_add = _commutative(self.add)
        # q when the tables are GF(q)'s: set by the generators and the parser
        self.gf_order = gf_order

    @property
    def nonzero_mask(self) -> int:
        m = full_mask(self.size)
        if self.zero is not None:
            m &= ~(1 << self.zero)
        return m


class FiniteLieHyperalgebra:
    """Lie hyperalgebra over a FiniteHyperfield.

    add: n x n masks, smul: |F| x n masks, bracket: n x n masks. The zero
    vector is located as the common value of 0_F * x (standing assumption;
    verified by the checker).
    """
    associative_add = cached_property(_associative)
    # the lift of the transposed bracket, which the checker's right-side laws read
    transposed_bracket_ops = cached_property(lambda L: SetOps([list(c) for c in zip(*L.bracket)]))

    def __init__(self, field, names, add, smul, bracket, *, elt=(None, None, None)):
        if not isinstance(field, FiniteHyperfield):
            raise FieldMismatch("field must be a FiniteHyperfield")
        self.field = field
        self.names = _carrier(names)
        self.size = n = len(self.names)
        self.add, self.add_elt = _intake(add, n, n, n, "add", elt[0])
        self.smul, self.smul_elt = _intake(smul, field.size, n, n, "smul", elt[1])
        self.bracket, self.br_elt = _intake(bracket, n, n, n, "bracket", elt[2])
        self.add_ops = SetOps(self.add)
        self.smul_ops = SetOps(self.smul)
        self.bracket_ops = SetOps(self.bracket)
        self.index = {nm: i for i, nm in enumerate(self.names)}
        cell = self.smul[field.zero][0] if field.zero is not None else 0
        self.zero = cell.bit_length() - 1 if is_singleton(cell) else None
        self.is_trivial = field.is_trivial and all(
            t is not None for t in (self.add_elt, self.smul_elt, self.br_elt))
        self.commutative_add = _commutative(self.add)


class CheckReport:
    """Outcome of an axiom check.

    axioms maps axiom name to a dict with keys ok, witness, detail.
    Witnesses are element-index tuples, the witness positions of the
    axiom's trees in LAWS; reevaluate() replays one.
    """

    def __init__(self, kind):
        self.kind = kind
        self.axioms = {}

    def record(self, name, ok, witness=None, detail=""):
        self.axioms[name] = {"ok": bool(ok), "witness": witness, "detail": detail}

    def record_first(self, name, failures) -> bool:
        """Record name as failing at the first witness that failures yields,
        else as holding; return whether it holds."""
        for w in failures:
            self.record(name, False, w)
            return False
        self.record(name, True)
        return True

    @property
    def ok(self) -> bool:
        return all(a["ok"] for a in self.axioms.values())

    @property
    def failures(self):
        return [n for n, a in self.axioms.items() if not a["ok"]]

    def to_dict(self):
        return {"kind": self.kind, "ok": self.ok, "axioms": self.axioms}

    def raise_if_failed(self):
        for name, a in self.axioms.items():
            if not a["ok"]:
                raise AxiomFailure(name, a["witness"], a["detail"])


def _values(elementwise: bool, size: int):
    """Element i as the checker's view sees it: i itself on element-index
    tables, the singleton mask 1 << i on set lifts."""
    return list(range(size)) if elementwise else [1 << i for i in range(size)]


def check_hypergroup_tables(table, op, vals, carrier_mask: int, report: CheckReport,
                            prefix="add", decided=False):
    """Associativity and reproduction for one hyperoperation, recorded on report.

    table is its mask table; op is the view of it that the calling checker
    picked (element-index table or SetOps) and vals[i] is element i in that
    view. Callers run this only on carriers closed under the operation, so
    associativity values never leave carrier_mask. decided records
    associativity and reproduction as holding, for a caller that proved them.
    """
    elems = list(iter_bits(carrier_mask))
    sub = [vals[x] for x in elems]
    report.record_first(f"{prefix}-associative", () if decided else (
        tuple(elems[i] for i in w) for w in associativity(op, op, sub, sub)))

    def repro_fails():
        for x in elems:
            left = 0
            right = 0
            for y in elems:
                left |= table[x][y] & carrier_mask
                right |= table[y][x] & carrier_mask
            if left != carrier_mask or right != carrier_mask:
                yield (x,)

    report.record_first(f"{prefix}-reproduction", () if decided else repro_fails())


def check_hypergroup(hg: Hypergroup) -> CheckReport:
    report = CheckReport("hypergroup")
    elt = hg.add_elt
    check_hypergroup_tables(hg.add, hg.add_ops if elt is None else elt,
                            _values(elt is not None, hg.size), full_mask(hg.size), report)
    return report


def check_hyperfield(F: FiniteHyperfield) -> CheckReport:
    """Exhaustive hyperfield check: additive hypergroup with zero identity,
    multiplicative hypergroup on nonzeros with absorbing zero, distributivity."""
    report = CheckReport("hyperfield")
    n = F.size
    if F.is_trivial:
        fadd, fmul = F.add_elt, F.mul_elt
    else:
        fadd, fmul = F.add_ops, F.mul_ops
    vals = _values(F.is_trivial, n)
    check_hypergroup_tables(F.add, fadd, vals, full_mask(n), report, prefix="add")

    report.record("zero-identity", F.zero is not None, None,
                  "" if F.zero is not None else "no additive identity with singleton sums")
    if F.zero is None:
        return report
    z = F.zero
    nzmask = F.nonzero_mask

    closure_fails = ((x, y) for x in iter_bits(nzmask) for y in iter_bits(nzmask)
                     if F.mul[x][y] & (1 << z))
    if report.record_first("mul-nonzero-closure", closure_fails) and n > 1:
        check_hypergroup_tables(F.mul, fmul, vals, nzmask, report, prefix="mul")

    report.record("one-identity", F.one is not None, None,
                  "" if F.one is not None else "no multiplicative identity on nonzeros")

    report.record_first("zero-absorbing", (
        (x,) for x in range(n) if F.mul[z][x] != 1 << z or F.mul[x][z] != 1 << z))

    report.record_first("distributive-left", left_distributivity(fmul, fadd, vals, vals))
    report.record_first("distributive-right",
                        right_distributivity(fmul, fadd, fadd, vals, vals))
    return report


def check_lie_hyperalgebra(L: FiniteLieHyperalgebra) -> CheckReport:
    """Check of the hypermodule and Lie axioms over the whole carrier.

    Bilinearity of the bracket is verified through its elementwise-additive
    and scalar-homogeneous decomposition, which is equivalent to the setwise
    statement because setwise operations distribute over unions. On
    element-index tables, the seven laws that laws.on_generators decides
    are recorded as holding when it decides them; otherwise their loops run
    and name the first witness.
    """
    report = CheckReport("lie_hyperalgebra")
    field_report = check_hyperfield(L.field)
    n = L.size
    F = L.field
    triv = L.is_trivial
    if triv:
        add, smul, br = L.add_elt, L.smul_elt, L.br_elt
        fadd, fmul = F.add_elt, F.mul_elt
    else:
        add, smul, br = L.add_ops, L.smul_ops, L.bracket_ops
        fadd, fmul = F.add_ops, F.mul_ops
    decided, scaled = (on_generators(add, smul, br, L.zero) if triv and L.zero is not None
                       else (False, False))
    vec = _values(triv, n)
    sca = _values(triv, F.size)
    report.record("scalar-field", field_report.ok, None,
                  "" if field_report.ok else f"field fails: {field_report.failures}")
    check_hypergroup_tables(L.add, add, vec, full_mask(n), report, decided=decided)

    report.record("zero-vector", L.zero is not None, None,
                  "" if L.zero is not None else "0_F * x is not a consistent singleton")
    if L.zero is None or F.zero is None or F.one is None:
        return report
    zi, fz, fo = L.zero, F.zero, F.one

    report.record_first("scalar-zero", ((x,) for x in range(n) if L.smul[fz][x] != 1 << zi))
    report.record_first("scalar-one", ((x,) for x in range(n) if L.smul[fo][x] != 1 << x))
    # 0_L + x = {x} = x + 0_L; stated by the reproduction axiom only
    # jointly, but trivial quotient math later relies on it directly
    report.record_first("zero-vector-identity", (
        (x,) for x in range(n) if L.add[zi][x] != 1 << x or L.add[x][zi] != 1 << x))

    report.record_first("scalar-dist-vector-add",
                        () if scaled else left_distributivity(smul, add, sca, vec))
    report.record_first("scalar-dist-scalar-add", right_distributivity(smul, fadd, add, sca, vec))
    report.record_first("scalar-associative", associativity(smul, fmul, sca, vec))
    report.record_first("bracket-additive-left",
                        () if decided else right_distributivity(br, add, add, vec, vec))
    if not scaled:
        # the bracket transposed: the right-side laws are the left-side
        # loops on it, their witnesses rotated back into the law's order
        brt = [list(c) for c in zip(*br)] if triv else L.transposed_bracket_ops
    report.record_first("bracket-additive-right", () if decided else (
        (x, y1, y2) for y1, y2, x in right_distributivity(brt, add, add, vec, vec)))
    report.record_first("bracket-homogeneous-left",
                        () if scaled else homogeneity(br, smul, sca, vec))
    report.record_first("bracket-homogeneous-right", () if scaled else (
        (a, x, y) for a, y, x in homogeneity(brt, smul, sca, vec)))
    report.record_first("bracket-alternating",
                        ((x,) for x in range(n) if not L.bracket[x][x] & 1 << zi))
    report.record_first("jacobi-contains-zero",
                        () if decided else jacobi(add, br, vec, vec[zi], not triv))
    return report


# Each witnessed axiom as equations (relation, s, t) between expression
# trees, asking for s = t or for s to meet or miss t. A leaf is a witness
# position or a named set (carrier, nonzero, zero, one, scalar-zero); a node
# (op, left, right) applies setwise + (addition), * (hyperfield product),
# . (scalar action), [] (bracket), or the scalar field's F+ and F*.
def _associative_law(op):
    return [("=", (op, (op, 0, 1), 2), (op, 0, (op, 1, 2)))]


def _reproductive_law(op, carrier):
    return [("=", (op, 0, carrier), carrier), ("=", (op, carrier, 0), carrier)]


_HYPERGROUP_LAWS = {"add-associative": _associative_law("+"),
                    "add-reproduction": _reproductive_law("+", "carrier")}

LAWS = {
    "hypergroup": _HYPERGROUP_LAWS,
    "hyperfield": {
        **_HYPERGROUP_LAWS,
        "mul-nonzero-closure": [("misses", ("*", 0, 1), "zero")],
        "mul-associative": _associative_law("*"),
        "mul-reproduction": _reproductive_law("*", "nonzero"),
        "zero-absorbing": [("=", ("*", "zero", 0), "zero"), ("=", ("*", 0, "zero"), "zero")],
        "distributive-left": [("=", ("*", 0, ("+", 1, 2)), ("+", ("*", 0, 1), ("*", 0, 2)))],
        "distributive-right": [("=", ("*", ("+", 0, 1), 2), ("+", ("*", 0, 2), ("*", 1, 2)))],
    },
    "lie_hyperalgebra": {
        **_HYPERGROUP_LAWS,
        "scalar-zero": [("=", (".", "scalar-zero", 0), "zero")],
        "scalar-one": [("=", (".", "one", 0), 0)],
        "zero-vector-identity": [("=", ("+", "zero", 0), 0), ("=", ("+", 0, "zero"), 0)],
        "scalar-dist-vector-add": [("=", (".", 0, ("+", 1, 2)), ("+", (".", 0, 1), (".", 0, 2)))],
        "scalar-dist-scalar-add": [("=", (".", ("F+", 0, 1), 2), ("+", (".", 0, 2), (".", 1, 2)))],
        "scalar-associative": [("=", (".", ("F*", 0, 1), 2), (".", 0, (".", 1, 2)))],
        "bracket-additive-left": [("=", ("[]", ("+", 0, 1), 2), ("+", ("[]", 0, 2), ("[]", 1, 2)))],
        "bracket-additive-right": [("=", ("[]", 0, ("+", 1, 2)),
                                    ("+", ("[]", 0, 1), ("[]", 0, 2)))],
        "bracket-homogeneous-left": [("=", ("[]", (".", 0, 1), 2), (".", 0, ("[]", 1, 2)))],
        "bracket-homogeneous-right": [("=", ("[]", 1, (".", 0, 2)), (".", 0, ("[]", 1, 2)))],
        "bracket-alternating": [("meets", ("[]", 0, 0), "zero")],
        "jacobi-contains-zero": [("meets", ("+", ("+", ("[]", 0, ("[]", 1, 2)),
                                                   ("[]", 1, ("[]", 2, 0))),
                                            ("[]", 2, ("[]", 0, 1))), "zero")],
    },
}
# laws on the nonzeros, whose every operation value is cut to them
_NONZERO_LAWS = {"mul-associative", "mul-reproduction"}
_RELATIONS = {"=": int.__eq__, "meets": int.__and__, "misses": lambda s, t: not s & t}


def evaluate(tree, values, tables, cut=-1) -> int:
    """Mask value of an expression tree: values[tree] at a leaf, setwise
    tables[op] at a node (op, left, right), each node's value cut to cut."""
    if type(tree) is not tuple:
        return values[tree]
    op, left, right = tree
    return setwise(tables[op], evaluate(left, values, tables, cut),
                   evaluate(right, values, tables, cut)) & cut


def _arity(tree) -> int:
    """One more than the highest witness position in a tree, 0 for none."""
    if type(tree) is tuple:
        return max(_arity(tree[1]), _arity(tree[2]))
    return tree + 1 if type(tree) is int else 0


def _point(i) -> int:
    return 0 if i is None else 1 << i


def _operands(S):
    """(kind, operation tables, named sets) of a structure: its raw mask
    tables, and the empty set for an element it lacks."""
    sets = {"carrier": full_mask(S.size)}
    if isinstance(S, FiniteLieHyperalgebra):
        F = S.field
        sets.update({"zero": _point(S.zero), "one": _point(F.one), "scalar-zero": _point(F.zero)})
        return "lie_hyperalgebra", {"+": S.add, ".": S.smul, "[]": S.bracket,
                                    "F+": F.add, "F*": F.mul}, sets
    if isinstance(S, FiniteHyperfield):
        sets.update({"zero": _point(S.zero), "nonzero": S.nonzero_mask})
        return "hyperfield", {"+": S.add, "*": S.mul}, sets
    if isinstance(S, Hypergroup):
        return "hypergroup", {"+": S.add}, sets
    raise HyperlieError(f"cannot reevaluate on {type(S).__name__}")


def reevaluate(structure, axiom: str, witness) -> bool:
    """Recheck a single axiom instance at the given witness.

    Returns True when the instance holds (i.e. the witness does NOT violate
    the axiom); a witness whose length is not the law's arity raises
    HyperlieError. Accepts the axiom names produced by the checkers above and
    evaluates their LAWS on the raw mask tables, never through a SetOps; a
    law on the nonzeros cuts every operation value to them.
    """
    kind, tables, values = _operands(structure)
    if axiom not in LAWS[kind]:
        raise HyperlieError(f"unknown {kind} axiom {axiom}")
    laws = LAWS[kind][axiom]
    arity = max(_arity(tree) for _, *trees in laws for tree in trees)
    if len(witness) != arity:
        raise HyperlieError(f"{axiom} takes {arity} witness elements, got {len(witness)}")
    cut = values["nonzero"] if axiom in _NONZERO_LAWS else -1
    values.update(enumerate(1 << x for x in witness))
    return all(_RELATIONS[rel](evaluate(s, values, tables, cut), evaluate(t, values, tables, cut))
               for rel, s, t in laws)
