"""The benchmark's three workloads as fixed job lists.

A job is one call into the package: a CLI job calls ``hyperlie.cli.main``
in-process, a session job calls exported library functions. Each job has a
name, the CLI command group it belongs to, a ``call`` that is timed, and a
``facts`` function, run after the timer stops, that reduces the result to
facts a relabelling of the carrier does not change.

Every call goes through a module attribute looked up at call time, so the
tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import hyperlie
import hyperlie.cli

@dataclass(frozen=True)
class Job:
    name: str
    group: str
    call: Callable  # (ctx) -> raw result, timed
    facts: Callable  # (raw result, ctx) -> dict, not timed


class Context:
    """What the jobs of one run share: fixture files, the structures loaded
    from them for the current pass, and a work directory for ``gen``."""

    def __init__(self, paths, workdir):
        self.paths = paths
        self.workdir = workdir
        self.structures = {}

    def load(self):
        """Fresh structures from the fixture files, as a user session
        opening them would have."""
        self.structures = {}
        for name, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                self.structures[name] = hyperlie.parse_structure(fh.read())


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _partition_facts(classes) -> dict:
    """Class count, sorted class sizes and a digest of the classes as sets
    of element names (names survive a relabelling)."""
    canon = sorted(sorted(c) for c in classes)
    return {
        "classes": len(canon),
        "sizes": sorted(len(c) for c in canon),
        "partition_sha": _sha(json.dumps(canon))[:16],
    }


def _names_of(part, names):
    return [[names[i] for i in range(len(names)) if m >> i & 1] for m in part.classes]


# --------------------------------------------------------------- CLI jobs


@dataclass(frozen=True)
class CliResult:
    rc: int
    stdout: str
    stderr: str


def _run_cli(argv) -> CliResult:
    """One ``main`` call with a cold relation cache, as a fresh process has."""
    hyperlie.clear_relation_cache()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = hyperlie.cli.main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            rc = e.code
    return CliResult(rc, out.getvalue(), err.getvalue())


def _cli_facts(res: CliResult, command: str, argv) -> dict:
    facts = {"rc": res.rc}
    if res.rc != 0:
        # documented error: the exit code and the kind of message
        facts["stderr_kind"] = res.stderr.split(":", 1)[0]
        return facts
    if command == "gen":
        out = argv[argv.index("-o") + 1]
        with open(out, "rb") as fh:
            facts["file_sha"] = _sha(fh.read())
        return facts
    payload = json.loads(res.stdout)
    if command == "check":
        facts.update(ok=payload["ok"],
                     axioms={k: v["ok"] for k, v in payload["axioms"].items()})
    elif command == "relation":
        facts.update(_partition_facts(payload["classes"]),
                     mode=payload["mode"], bounds=payload["bounds"])
    elif command == "quotient" or "transitive" in payload:
        facts.update(payload)
    elif "is_part" in payload:
        # the witness is the first escaping pair in mask order, which a
        # relabelling changes; its presence does not change
        facts.update(is_part=payload["is_part"], set=sorted(payload["set"]),
                     has_witness=payload["witness"] is not None)
    elif "certificate" in payload:
        cert = dict(payload["certificate"])
        facts.update(_partition_facts(cert.pop("minimal_classes")), **cert)
    else:  # s-stabilize
        facts.update(_partition_facts(payload["class_list"]), m=payload["m"])
    return facts


def cli_job(*template: str) -> Job:
    """Job running ``hyperlie <template>``; ``{name}`` is a fixture path,
    ``{out}`` a file in the work directory."""
    command = template[0]

    def argv(ctx):
        return [a.format(out=os.path.join(ctx.workdir, "gen.json"), **ctx.paths)
                for a in template]

    def call(ctx):
        return _run_cli(argv(ctx))

    def facts(res, ctx):
        out = _cli_facts(res, command, argv(ctx))
        if "--json" in template and res.rc == 0:
            out["stdout_sha"] = _sha(res.stdout)
        return out

    name = " ".join(t.strip("{}") for t in template if t not in ("--json", "-o", "{out}"))
    return Job(name, command, call, facts)


CLI_DESK = [
    cli_job("check", "{ex1}", "--json"),
    cli_job("check", "{ex2}", "--json"),
    cli_job("check", "{ab1}", "--json"),
    cli_job("check", "{m1}", "--json"),
    cli_job("check", "{m4}", "--json"),
    cli_job("relation", "{ex1}", "--rel", "Sn:2", "--json"),
    cli_job("relation", "{ex1}", "--rel", "A", "--json"),
    cli_job("relation", "{ex1}", "--rel", "L", "--json"),
    cli_job("relation", "{ex1}", "--rel", "alpha", "--json"),
    cli_job("relation", "{ex2}", "--rel", "A", "--json"),
    cli_job("relation", "{m4}", "--rel", "Sn:1", "--json"),
    cli_job("relation", "{m4}", "--rel", "L", "--json"),
    cli_job("relation", "{m1}", "--rel", "alpha", "--json"),
    cli_job("quotient", "{ex1}", "--rel", "L", "--json"),
    cli_job("quotient", "{ex1}", "--rel", "Sn:2", "--json"),
    cli_job("quotient", "{ex1}", "--rel", "A", "--json"),
    cli_job("analyze", "{ex1}", "s-stabilize", "--json"),
    cli_job("analyze", "{ex1}", "snpart", "--n", "2", "--set", "a", "--json"),
    cli_job("analyze", "{ex1}", "transitivity", "--n", "2", "--json"),
    cli_job("analyze", "{ab1}", "smallest", "--json"),
    cli_job("gen", "trivial", "--q", "3", "--dim", "4", "--constants", "ex1", "-o", "{out}"),
    cli_job("gen", "qhyperfield", "--q", "7", "--subgroup", "1,2,4", "-o", "{out}"),
    cli_job("gen", "coset", "--group", "zn:6", "--subgroup", "0,3", "-o", "{out}"),
    # documented errors: bounds over the hard cap exit 3, an unknown
    # relation exits 2
    cli_job("relation", "{ex1}", "--rel", "Sn:2", "--bounds", "5,4,3,3", "--json"),
    cli_job("relation", "{ex1}", "--rel", "nosuch", "--json"),
]

# One call per engine path, each at raised bounds with the oracle off so
# the given bounds are the only rung.
ENGINE_DEEP = [
    cli_job("relation", "{ex1}", "--rel", "Sn:2", "--bounds", "3,3,1,1", "--oracle", "off", "--json"),
    cli_job("relation", "{ex1}", "--rel", "L", "--bounds", "3,3,2,2", "--oracle", "off", "--json"),
    cli_job("relation", "{ex2}", "--rel", "A", "--bounds", "3,3,1,1", "--oracle", "off", "--json"),
    cli_job("relation", "{m4}", "--rel", "Sn:1", "--bounds", "3,3,2,2", "--oracle", "off", "--json"),
]


# ------------------------------------------------------------ session jobs


def _relation_facts(res, ctx, fixture):
    rel, part = res
    out = _partition_facts(_names_of(part, ctx.structures[fixture].names))
    out["pairs"] = rel.pair_count
    return out


def _session_jobs():
    """One job per fixture and library function; a job over depths n calls
    it once per depth."""
    D = hyperlie.DEFAULT_BOUNDS
    jobs = []
    all_fx = ("ex1", "ex2", "ab1", "ab5", "conj0", "conj1", "conj3", "conj4",
              "m1_module", "m3_module", "m4")
    # algebras over a trivial field: their quotients need no scalar relation
    trivial_fx = ("ex1", "ex2", "ab1", "ab5", "conj0", "conj1", "conj3", "conj4")

    def sn_closure(L, n):
        return hyperlie.closed_relation(L, "Sn", n, D)[1]

    for fx in all_fx:
        jobs.append(Job(
            f"is_transitive_Sn {fx} n=1..3", "analyze",
            lambda ctx, fx=fx: [hyperlie.is_transitive_Sn(ctx.structures[fx], n)
                                for n in (1, 2, 3)],
            lambda res, ctx: {"transitive": [v for v, _ in res],
                              "routes": [[r["direct"], r["row_vs_class"], r["rows_are_parts"]]
                                         for _, r in res]}))

    # the worked example's parts of ex1
    for members in (("a",), ("0", "a", "2a")):
        def parts(ctx, members=members):
            L = ctx.structures["ex1"]
            K = sum(1 << L.index[m] for m in members)
            return [hyperlie.is_Sn_part(L, n, K) for n in (1, 2)]

        jobs.append(Job(
            f"is_Sn_part ex1 {{{','.join(members)}}} n=1..2", "analyze", parts,
            lambda res, ctx: {"is_part": [v.is_part for v in res],
                              "has_witness": [v.witness is not None for v in res]}))
    for fx in ("ex1", "ex2", "conj3", "m4"):
        jobs.append(Job(
            f"lemma_equivalence_check {fx} n=2", "analyze",
            lambda ctx, fx=fx: hyperlie.lemma_equivalence_check(ctx.structures[fx], 2),
            lambda res, ctx: {"all_agree": res["all_agree"], "checked": res["checked"]}))
    for fx in trivial_fx:
        jobs.append(Job(
            f"is_strongly_regular {fx} n=1..4", "analyze",
            lambda ctx, fx=fx: [
                hyperlie.is_strongly_regular(ctx.structures[fx],
                                             sn_closure(ctx.structures[fx], n))[0]
                for n in (1, 2, 3, 4)],
            lambda res, ctx: {"regular": res}))

        def quotients(ctx, fx=fx):
            L = ctx.structures[fx]
            out = []
            for n in (1, 2, 3, 4):
                part = sn_closure(L, n)
                A = hyperlie.quotient_lie_algebra(L, part)
                out.append([part.num_classes, A.dimension, hyperlie.solvable_length(A)])
            return out

        jobs.append(Job(
            f"quotient_lie_algebra {fx} n=1..4", "quotient", quotients,
            lambda res, ctx: {"classes_dim_length": res}))
    for fx in ("ex1", "ex2", "conj3", "m1_module", "m3_module", "m4"):
        for kind in ("A", "L"):
            jobs.append(Job(
                f"closed_relation {fx} {kind}", "relation",
                lambda ctx, fx=fx, kind=kind: hyperlie.closed_relation(
                    ctx.structures[fx], kind, 0, D),
                lambda res, ctx, fx=fx: _relation_facts(res, ctx, fx)))
    for fx in all_fx:
        jobs.append(Job(
            f"relation_S {fx}", "analyze",
            lambda ctx, fx=fx: hyperlie.relation_S(ctx.structures[fx]),
            lambda res, ctx, fx=fx: dict(
                _partition_facts(_names_of(res[0], ctx.structures[fx].names)), m=res[1])))
    for fx in ("ab1", "ab5"):
        jobs.append(Job(
            f"smallest_solvable_oracle {fx}", "analyze",
            lambda ctx, fx=fx: hyperlie.smallest_solvable_oracle(ctx.structures[fx])[1],
            lambda res, ctx: dict(_partition_facts(res["minimal_classes"]),
                                  qualifying=res["qualifying_partitions"],
                                  checked=res["checked_partitions"])))

    cap = hyperlie.ExpressionBounds(3, 3, 2, 2)
    for kind, n in (("L", 1), ("A", 1), ("Sn", 2)):
        def escalate(ctx, kind=kind, n=n):
            L = ctx.structures["ex1"]
            if kind == "L":
                oracle = hyperlie.Partition.diagonal(L.size)
            else:
                oracle = hyperlie.linear_oracle_partition(L, 1 if kind == "A" else n)
            return hyperlie.relation_with_escalation(L, kind, n, cap=cap, oracle=oracle)

        jobs.append(Job(
            f"relation_with_escalation ex1 {kind}{n if kind == 'Sn' else ''}", "relation",
            escalate,
            lambda res, ctx: dict(_partition_facts(_names_of(res[0], ctx.structures["ex1"].names)),
                                  mode=res[1].mode,
                                  bounds=list(res[1].bounds_used.astuple()))))
    return jobs


@dataclass(frozen=True)
class Workload:
    jobs: list
    # session workloads load the fixture files once per pass and share the
    # relation cache across the pass; CLI jobs clear it themselves
    session: bool


def workload(name: str) -> Workload:
    if name == "cli-desk":
        return Workload(CLI_DESK, session=False)
    if name == "engine-deep":
        return Workload(ENGINE_DEEP, session=False)
    if name == "analysis-session":
        return Workload(_session_jobs(), session=True)
    raise KeyError(name)


WORKLOADS = ("cli-desk", "engine-deep", "analysis-session")
