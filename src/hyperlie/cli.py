"""Command-line front end: checking, relations, quotients, analysis, and
structure generation over the JSON interchange format."""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    is_Sn_part,
    is_transitive_Sn,
    relation_S,
    smallest_solvable_oracle,
)
from .errors import (
    BoundsExceeded,
    CarrierCapExceeded,
    CharTwoGate,
    FieldMismatch,
    HyperlieError,
    InternalInvariant,
    MalformedTable,
    NotLie,
    NotSymmetric,
    ParseError,
    TooLarge,
)
from .generators import (
    CONSTANT_PRESETS,
    check_trivial_carrier,
    gen_coset_hypergroup,
    gen_quotient_hyperfield,
    gen_trivial_from_lie,
    make_cyclic_group,
    make_s3,
)
from .gf import factor_prime_power, normalize_constants, trusted_field
from .interchange import parse_structure, serialize_structure
from .quotients import (
    derived_dims,
    linear_oracle_partition,
    quotient_lie_algebra,
    solvable_length,
)
from .relations import (
    HARD_CAP,
    ExpressionBounds,
    Partition,
    RelationStatus,
    relation_json,
    relation_with_escalation,
)
from .sets import iter_bits
from .structures import (
    FiniteHyperfield,
    FiniteLieHyperalgebra,
    check_hyperfield,
    check_hypergroup,
    check_lie_hyperalgebra,
)

# combining accents that mirror the quotient-class notation in text reports
_ACCENT = {"L": "̄", "alpha": "̄", "A": "̃", "Sn": "̂"}


def _accented(name: str, kind: str) -> str:
    return name + _ACCENT[kind]


def _parse_bounds(text: str) -> ExpressionBounds:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError("--bounds wants four comma-separated integers T,M,P,Q")
    try:
        t, m, p, q = (int(x) for x in parts)
    except ValueError:
        raise ParseError(f"--bounds: non-integer in {text!r}") from None
    return ExpressionBounds(t, m, p, q)


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    return parse_structure(text)


def _need_algebra(x, what: str) -> FiniteLieHyperalgebra:
    if not isinstance(x, FiniteLieHyperalgebra):
        raise ParseError(f"{what} needs a lie_hyperalgebra file")
    return x


def _resolve_rel(args):
    rel = args.rel
    n = args.n
    if rel.startswith("Sn:"):
        rel, _, k = rel.partition(":")
        try:
            n = int(k)
        except ValueError:
            raise ParseError(f"--rel Sn:k wants an integer depth, got {k!r}") from None
    if rel not in ("L", "A", "Sn", "alpha"):
        raise ParseError(f"--rel: unknown relation {args.rel!r}")
    if rel == "Sn" and n < 1:
        raise ParseError("--rel Sn needs --n at least 1")
    return rel, n


def _oracle_for(structure, rel: str, n: int):
    """Reference partition for escalation, or None where none applies. The
    diagonal is exact for alpha on a field, and for L on a singleton-valued
    algebra, whose every expression value is a singleton. A and Sn:k take
    the linear oracle where the tables pass its premise, detect_trivial,
    outside characteristic 2."""
    if rel == "alpha":
        return None if trusted_field(structure) is None else Partition.diagonal(structure.size)
    L = structure
    if rel == "L":
        return Partition.diagonal(L.size) if L.is_trivial else None
    try:
        return linear_oracle_partition(L, 1 if rel == "A" else n)
    except (NotLie, CharTwoGate):
        return None


def _compute_partition(structure, rel: str, n: int, bounds: ExpressionBounds,
                       oracle_mode: str):
    """Partition + status under the CLI escalation policy.

    --oracle off pins the given bounds (single run, honestly labeled);
    auto escalates toward the hard cap, stopping early on an exact match
    with the linear oracle whenever the structure supports one.
    """
    target = structure if rel == "alpha" else _need_algebra(structure, "this relation")
    if oracle_mode == "off":
        return relation_with_escalation(target, rel, n, start=bounds, cap=bounds)
    oracle = _oracle_for(target, rel, n) if bounds.within(HARD_CAP) else None
    return relation_with_escalation(
        target, rel, n, start=bounds, cap=HARD_CAP, oracle=oracle
    )


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=1, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def cmd_check(args) -> int:
    x = _load(args.file)
    if isinstance(x, FiniteLieHyperalgebra):
        report = check_lie_hyperalgebra(x)
    elif isinstance(x, FiniteHyperfield):
        report = check_hyperfield(x)
    else:
        report = check_hypergroup(x)
    lines = [f"kind: {report.kind}", f"axioms checked: {len(report.axioms)}"]
    for name, entry in report.axioms.items():
        if not entry["ok"]:
            lines.append(f"FAIL {name} witness={entry['witness']} {entry['detail']}")
    lines.append("result: PASS" if report.ok else "result: FAIL")
    _emit(args, report.to_dict(), lines)
    return 0 if report.ok else 1


def _partition_lines(part: Partition, status: RelationStatus, names, rel: str,
                     n: int):
    label = f"Sn n={n}" if rel == "Sn" else rel
    lines = [
        f"relation {label} bounds={status.bounds_used.astuple()} "
        f"mode={status.mode} classes={part.num_classes}"
    ]
    for mask in part.classes:
        members = [names[i] for i in iter_bits(mask)]
        lines.append(f"  {_accented(members[0], rel)} = {{{', '.join(members)}}}")
    return lines


def cmd_relation(args) -> int:
    x = _load(args.file)
    rel, n = _resolve_rel(args)
    bounds = _parse_bounds(args.bounds)
    if rel == "alpha" and isinstance(x, FiniteLieHyperalgebra):
        x = x.field
    if rel == "alpha" and not isinstance(x, FiniteHyperfield):
        raise ParseError("--rel alpha needs a hyperfield (or an algebra's field)")
    part, status = _compute_partition(x, rel, n, bounds, args.oracle)
    _emit(args, relation_json(part, x.names, status),
          _partition_lines(part, status, x.names, rel, n))
    return 0


def cmd_quotient(args) -> int:
    x = _need_algebra(_load(args.file), "quotient")
    rel, n = _resolve_rel(args)
    if rel == "alpha":
        raise ParseError("quotient works with --rel L, A, or Sn")
    bounds = _parse_bounds(args.bounds)
    part, status = _compute_partition(x, rel, n, bounds, args.oracle)
    A = quotient_lie_algebra(x, part)
    length = solvable_length(A)
    dims = derived_dims(A)
    payload = {
        "classes": part.num_classes,
        "field_order": A.field.size,
        "dim": A.dimension,
        "solvable_length": length,
        "derived_dims": dims,
    }
    label = f"Sn n={n}" if rel == "Sn" else rel
    lines = [
        f"quotient by {label}* at bounds={status.bounds_used.astuple()} "
        f"mode={status.mode}",
        f"classes: {part.num_classes}",
        f"field order: {A.field.size}",
        f"dim: {A.dimension}",
        f"solvable length: {length if length is not None else 'not solvable'}",
        f"derived dims: {dims}",
    ]
    _emit(args, payload, lines)
    return 0


def _parse_set(L: FiniteLieHyperalgebra, text: str) -> int:
    mask = 0
    for nm in text.split(","):
        nm = nm.strip()
        i = L.index.get(nm)
        if i is None:
            raise ParseError(f"--set: unknown element {nm!r}")
        mask |= 1 << i
    if mask == 0:
        raise ParseError("--set needs at least one element")
    return mask


def cmd_analyze(args) -> int:
    x = _need_algebra(_load(args.file), "analyze")
    bounds = _parse_bounds(args.bounds)
    names = x.names
    sub = args.analysis
    if sub in ("snpart", "transitivity") and args.n < 1:
        raise ParseError(f"{sub} needs --n at least 1")
    if sub == "snpart":
        if args.set is None:
            raise ParseError("snpart needs --set")
        K = _parse_set(x, args.set)
        verdict = is_Sn_part(x, args.n, K, bounds)
        witness = None
        if verdict.witness is not None:
            X, Y = verdict.witness
            witness = [[names[i] for i in iter_bits(X)],
                       [names[i] for i in iter_bits(Y)]]
        payload = {
            "is_part": verdict.is_part,
            "n": args.n,
            "set": [names[i] for i in iter_bits(K)],
            "witness": witness,
            "bounds": list(bounds.astuple()),
        }
        lines = [f"Sn-part n={args.n} bounds={bounds.astuple()}",
                 f"set: {{{', '.join(payload['set'])}}}",
                 f"is_part: {verdict.is_part}"]
        if witness is not None:
            lines.append(
                f"witness: value set {{{', '.join(witness[0])}}} meets the set, "
                f"permuted partner {{{', '.join(witness[1])}}} escapes"
            )
        _emit(args, payload, lines)
        return 0
    if sub == "transitivity":
        verdict, report = is_transitive_Sn(x, args.n, bounds)
        payload = {"transitive": verdict, "n": args.n, "crosscheck": report}
        lines = [f"Sn transitivity n={args.n} bounds={bounds.astuple()}",
                 f"transitive: {verdict}",
                 f"crosscheck: {report}"]
        _emit(args, payload, lines)
        return 0
    if sub == "smallest":
        part, certificate = smallest_solvable_oracle(x, bounds=bounds)
        payload = {"certificate": certificate}
        lines = [f"smallest solvable-quotient relation (bounds={bounds.astuple()})",
                 f"classes: {certificate['minimal_classes']}",
                 f"qualifying: {certificate['qualifying_partitions']} "
                 f"of {certificate['checked_partitions']} partitions",
                 f"agrees with engine: {certificate['agrees_with_engine']}"]
        _emit(args, payload, lines)
        return 0
    part, m = relation_S(x, bounds)  # s-stabilize
    payload = {"m": m, "classes": part.num_classes,
               "class_list": part.classes_as_names(names)}
    lines = [f"intersection relation stabilizes at m={m}",
             f"classes: {part.num_classes}"]
    _emit(args, payload, lines)
    return 0


def _parse_subgroup(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            out.append(tok)
    if not out:
        raise ParseError("--subgroup must not be empty")
    return out


def _int_tuple(text: str):
    """Integers of "(a,b,...)" or "a,b,..."; ValueError on anything else,
    an unbalanced parenthesis included."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return tuple(int(v) for v in text.split(","))


def _parse_inline_constants(text: str):
    """(i,j):(c0,c1,...);(k,l):(...) inline structure constants."""
    out = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            key, _, val = chunk.partition(":")
            i, j = _int_tuple(key)
            vec = _int_tuple(val)
        except ValueError:
            raise ParseError(f"--constants: cannot parse {chunk!r}") from None
        if (i, j) in out:
            raise ParseError(f"--constants: key ({i},{j}) given twice")
        out[(i, j)] = vec
    return out


def cmd_gen(args) -> int:
    if args.generator == "trivial":
        if args.q is None or args.dim is None:
            raise ParseError("gen trivial needs --q and --dim")
        check_trivial_carrier(args.q, args.dim)
        try:
            factor_prime_power(args.q)
        except HyperlieError as e:
            raise ParseError(f"--q: {e}") from None
        if args.constants in CONSTANT_PRESETS:
            q, dim, constants = CONSTANT_PRESETS[args.constants]
            if (args.q, args.dim) != (q, dim):
                raise ParseError(
                    f"preset {args.constants!r} is for q={q} dim={dim}"
                )
        else:
            constants = _parse_inline_constants(args.constants or "")
            normalize_constants(args.dim, constants)
        structure = gen_trivial_from_lie(args.q, args.dim, constants)
    elif args.generator == "qhyperfield":
        if args.q is None or args.subgroup is None:
            raise ParseError("gen qhyperfield needs --q and --subgroup")
        try:
            subgroup = [int(v) for v in _parse_subgroup(args.subgroup)]
        except ValueError:
            raise ParseError(f"--subgroup: expected integers, got {args.subgroup!r}") from None
        structure = gen_quotient_hyperfield(args.q, subgroup)
    else:  # coset
        if args.group is None or args.subgroup is None:
            raise ParseError("gen coset needs --group and --subgroup")
        if args.group == "s3":
            table, names = make_s3()
        elif args.group.startswith("zn:"):
            try:
                k = int(args.group[3:])
            except ValueError:
                raise ParseError(f"--group: bad cyclic order {args.group!r}") from None
            table, names = make_cyclic_group(k)
        else:
            raise ParseError(f"--group: expected zn:<k> or s3, got {args.group!r}")
        name_to_idx = {nm: i for i, nm in enumerate(names)}
        subgroup = []
        for tok in _parse_subgroup(args.subgroup):
            if tok in name_to_idx:
                subgroup.append(name_to_idx[tok])
            else:
                try:
                    subgroup.append(int(tok))
                except ValueError:
                    raise ParseError(f"--subgroup: unknown element {tok!r}") from None
        structure = gen_coset_hypergroup(table, subgroup)
    text = serialize_structure(structure)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError(f"cannot write {args.out}: {e}") from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections take main's input-error path."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hyperlie",
        description="fundamental relations and quotients of finite Lie "
                    "hyperalgebras",
    )
    ap.add_argument("--threads", type=int, default=0,
                    help="worker hint; results are identical at any count")
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted for interface stability and ignored")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_rel=True):
        p.add_argument("--bounds", default="2,2,1,1", help="T,M,P,Q expression caps")
        p.add_argument("--n", type=int, default=1, help="depth index for Sn")
        if with_rel:
            p.add_argument("--rel", default="Sn",
                           help="relation: L | A | Sn | alpha (Sn:k also accepted)")
            p.add_argument("--oracle", choices=("auto", "off"), default="auto",
                           help="auto checks trivial structures against the "
                                "linear oracle; off pins the given bounds")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="verify structure axioms")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("relation", help="compute a fundamental relation")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_relation)

    p = sub.add_parser("quotient", help="quotient Lie algebra report")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("analyze", help="parts, transitivity, stabilization, oracle")
    p.add_argument("file")
    p.add_argument("analysis",
                   choices=("snpart", "transitivity", "smallest", "s-stabilize"))
    p.add_argument("--set", default=None, help="comma-separated element names")
    common(p, with_rel=False)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gen", help="generate structures as interchange files")
    p.add_argument("generator", choices=("coset", "trivial", "qhyperfield"))
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--constants", default=None,
                   help="preset name (ex1, ex2, ab1, ab5) or (i,j):(c0,..);...")
    p.add_argument("--group", default=None, help="zn:<k> or s3")
    p.add_argument("--subgroup", default=None, help="comma-separated elements")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, list):  # argparse reads "--name=--" as []
                raise ParseError(f"argument --{name}: expected one argument")
        return args.fn(args)
    except (InternalInvariant, NotSymmetric) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except (BoundsExceeded, TooLarge, CarrierCapExceeded) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except (ParseError, MalformedTable, FieldMismatch) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except HyperlieError as e:
        print(f"property failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
