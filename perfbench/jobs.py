"""The four workloads: seeded inputs, job lists and exact output checks.

A workload has two steps.  ``inputs`` is what a user pays before the first
job (it is timed as set-up): it draws the seeded inputs and writes the
graph6 files the program will read.  ``jobs`` computes the reference
answers with ``oracle`` (untimed) and returns the job list.  A job's
``run`` is the timed part; ``check`` compares its output exactly with the
reference in ``expect`` and raises ``CheckFailed`` on any difference.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracle


class CheckFailed(Exception):
    pass


class BenchmarkError(Exception):
    """The benchmark cannot run here: no lapfam source, or a reference that
    disagrees with a known value."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[["Job", Any], dict[str, float]]
    expect: dict[str, Any] = field(default_factory=dict)


@dataclass
class Input:
    """What a job is handed: a family spec or a graph6 file, plus the graph
    the reference is computed from."""

    arg: str  # what the program is handed
    n: int = 0  # vertex count, where the input generator knows it
    edges: list[tuple[int, int]] | None = None  # None: build from the spec
    extra: dict[str, Any] = field(default_factory=dict)


def _name(arg: str) -> str:
    """An input as it appears in job labels: a spec, or a file's name."""
    return Path(arg).name if "/" in arg else arg


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``lapfam <argv>`` in-process; ``cli`` is the lapfam.cli module, looked up
    per call so installed trace wrappers apply."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _cli_json(result: tuple[int, str, str]) -> dict:
    code, out, err = result
    require(code == 0, f"exit code {code}: {err.strip()[:200]}")
    return json.loads(out)


def _random_file(workdir: Path, rng: random.Random, tag: str, n: int, m: int) -> Input:
    edges = oracle.random_connected(rng, n, m)
    path = workdir / f"{tag}-n{n}.g6"
    path.write_text(oracle.graph6(n, edges) + "\n")
    return Input(str(path), n, edges)


def _reference_graph(inp: Input) -> tuple[int, list[tuple[int, int]]]:
    if inp.edges is not None:
        return inp.n, inp.edges
    return oracle.family_graph(*oracle.parse_spec(inp.arg))


# --------------------------------------------------------------- spectrum

SPECTRUM_GAP_C = (7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 20, 24)  # gplus:2,c, n = 2c+1
SPECTRUM_STAR_C = (14, 17, 20, 24, 29)  # gplus:1,c, star on c+1 vertices
SPECTRUM_COMPLETE_C = (14, 17, 20, 24)  # g:2,c, complete graph on c+1 vertices
SPECTRUM_RANDOM_N = tuple(range(15, 27))


def spectrum_inputs(seed: int, workdir: Path, tiny: bool) -> list[Input]:
    gap, star, complete, rand = (
        ((3,), (4,), (4,), (7,))
        if tiny
        else (SPECTRUM_GAP_C, SPECTRUM_STAR_C, SPECTRUM_COMPLETE_C, SPECTRUM_RANDOM_N)
    )
    rng = random.Random(f"spectrum:{seed}")
    out = [Input(f"gplus:2,{c}", 2 * c + 1, extra={"gap": c}) for c in gap]
    out += [Input(f"gplus:1,{c}", c + 1, extra={"star": c}) for c in star]
    out += [Input(f"g:2,{c}", c + 1, extra={"complete": c}) for c in complete]
    for density in (2, 3):
        out += [_random_file(workdir, rng, f"spectrum-m{density}n", n, density * n) for n in rand]
    rng.shuffle(out)
    return out


def _closed_form_pairs(inp: Input) -> list[tuple[int, int]] | None:
    """Integral spectra known in closed form, as (eigenvalue, multiplicity), descending."""
    if "gap" in inp.extra:
        c = inp.extra["gap"]
        return [(lam, 1) for lam in range(2 * c + 1, -1, -1) if lam != c + 1]
    if "star" in inp.extra:
        n = inp.n
        return [(n, 1), (1, n - 2), (0, 1)]
    if "complete" in inp.extra:
        return [(inp.n, inp.n - 1), (0, 1)]
    return None


def check_spectrum(job: Job, result) -> dict[str, float]:
    e = job.expect
    p = _cli_json(result)
    n, m = e["n"], e["m"]
    require(p["n"] == n and p["edges"] == m, f"order/size {p['n']},{p['edges']} != {n},{m}")
    cp = [int(x) for x in p["charpoly"]]
    require(len(cp) == n + 1, f"charpoly degree {len(cp) - 1} != {n}")
    require(cp[n] == 1 and cp[n - 1] == -2 * m, "charpoly leading coefficients")
    require(cp[n - 2] == e["c2"], f"charpoly x^(n-2) coefficient {cp[n - 2]} != {e['c2']}")
    require(cp[0] == 0, "charpoly constant term is not 0")
    pairs = [(int(ev["value"]), ev["multiplicity"]) for ev in p["eigenvalues"]]
    values = [lam for lam, _ in pairs]
    require(values == sorted(set(values), reverse=True), "eigenvalues not strictly descending")
    for lam, mult in pairs:
        require(0 <= lam <= n, f"eigenvalue {lam} outside 0..{n}")
        got = oracle.root_multiplicity(cp, lam)
        require(got == mult, f"eigenvalue {lam}: multiplicity {mult}, polynomial says {got}")
    for lam in set(range(n + 1)) - set(values):
        require(oracle.poly_eval(cp, lam) != 0, f"integer root {lam} not reported")
    residual = p["residual_degree"]
    require(sum(mult for _, mult in pairs) + residual == n, "multiplicities + residual != n")
    integral = residual == 0
    distinct = integral and all(mult == 1 for _, mult in pairs)
    missing = [lam for lam in range(n + 1) if lam not in values]
    realizes = missing[0] if distinct and len(missing) == 1 else None
    require(p["integral"] is integral and p["distinct"] is distinct, "integral/distinct flags")
    require(p["realizes_S"] == realizes, f"realizes_S {p['realizes_S']} != {realizes}")
    if e["pairs"] is not None:
        require(pairs == e["pairs"], f"spectrum {pairs} != closed form {e['pairs']}")
        require(cp == oracle.poly_from_roots(e["pairs"]), "charpoly != closed-form product")
    if e["realizes"] is not None:
        require(p["realizes_S"] == e["realizes"], f"realizes_S != {e['realizes']}")
    return {}


def spectrum_jobs(inputs: list[Input], mods) -> list[Job]:
    jobs = []
    for inp in inputs:
        n, edges = _reference_graph(inp)
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        m = len(edges)
        c2 = ((2 * m) ** 2 - sum(x * x for x in degree)) // 2 - m
        gap = inp.extra.get("gap")
        expect = {
            "n": n,
            "m": m,
            "c2": c2,
            "pairs": _closed_form_pairs(inp),
            "realizes": None if gap is None else gap + 1,
        }
        argv = ["spectrum", inp.arg]
        jobs.append(
            Job(f"spectrum {_name(inp.arg)}", lambda argv=argv: run_cli(mods.cli, argv), check_spectrum, expect)
        )
    return jobs


# -------------------------------------------------------------- dimension

KINDS = ("outer", "multiset", "vector")
# (spec, kinds, --max-size or None).  n <= 24 throughout, so no --allow-large.
DIMENSION_FAMILY = (
    ("g:3,3", KINDS, None),
    ("g:3,4", KINDS, None),
    ("g:4,2", KINDS, None),
    ("g:4,3", ("vector",), None),
    ("g:5,2", KINDS, None),
    ("g:6,2", KINDS, None),
    ("gplus:2,5", KINDS, None),
    ("gplus:2,6", ("outer", "vector"), None),
    ("gplus:2,7", ("outer", "vector"), None),
    ("gplus:2,8", ("outer",), None),
    ("gplus:3,3", KINDS, None),
    ("gplus:3,4", ("outer", "vector"), None),
    ("gplus:4,2", KINDS, None),
    ("gplus:5,2", KINDS, None),
    ("gplus:6,2", KINDS, None),
    # A cap below the true dimension: the search runs to exhaustion.
    ("gplus:4,2", ("outer",), 2),
    ("gplus:3,4", ("outer",), 3),
    ("g:4,3", ("vector",), 3),
    ("g:6,2", ("outer",), 3),
    ("gplus:5,2", ("vector",), 2),
    ("gplus:6,2", ("multiset",), 3),
)
# Random graphs may have a large dimension or, for the multiset kind, none
# at all (a 2^n search), so they are small and their searches are capped.
DIMENSION_RANDOM_N = (9, 10, 11, 12)
DIMENSION_RANDOM_CAP = 5
DIMENSION_TINY = (
    ("gplus:4,2", ("outer",), None),
    ("g:3,3", ("vector",), None),
    ("gplus:2,3", ("multiset",), None),
    ("gplus:4,2", ("outer",), 2),
)


def dimension_inputs(seed: int, workdir: Path, tiny: bool) -> list[Input]:
    rng = random.Random(f"dimension:{seed}")
    family = DIMENSION_TINY if tiny else DIMENSION_FAMILY
    out = []
    for spec, kinds, cap in family:
        for kind in kinds:
            out.append(Input(spec, extra={"kind": kind, "max_size": cap}))
    for n in (7,) if tiny else DIMENSION_RANDOM_N:
        inp = _random_file(workdir, rng, "dimension", n, (8 * n) // 5)
        cap = {"max_size": DIMENSION_RANDOM_CAP}
        out += [Input(inp.arg, n, inp.edges, {"kind": kind, **cap}) for kind in KINDS]
    rng.shuffle(out)
    return out


def check_dimension(job: Job, result) -> dict[str, float]:
    e = job.expect
    p = _cli_json(result)
    require(p["kind"] == e["kind"] and p["n"] == e["n"], f"kind/n {p['kind']},{p['n']}")
    require(p["max_size"] == e["max_size"], "max_size not echoed")
    if e["size"] is None:
        require(p["exhausted"] is True, f"expected exhausted, got dimension {p['dimension']}")
        require(p["dimension"] is None and p["witness"] is None, "exhausted with a witness")
        return {}
    require(p["exhausted"] is False, "search reported exhausted")
    require(p["dimension"] == e["size"], f"dimension {p['dimension']} != reference {e['size']}")
    witness = tuple(v - 1 for v in p["witness"])
    require(witness == e["witness"], f"witness {witness} != lex-first {e['witness']}")
    require(e["predicate"](e["graph"], witness), f"{e['kind']} predicate rejects {witness}")
    return {}


def dimension_jobs(inputs: list[Input], mods) -> list[Job]:
    predicates = {
        "outer": mods.metric.is_outer_multiset_resolving,
        "multiset": mods.metric.is_multiset_resolving,
        "vector": mods.metric.is_resolving,
    }
    references: dict[tuple[str, str], tuple] = {}
    graphs: dict[str, Any] = {}
    jobs = []
    for inp in inputs:
        kind, cap = inp.extra["kind"], inp.extra["max_size"]
        n, edges = _reference_graph(inp)
        if inp.arg not in graphs:
            graphs[inp.arg] = (mods.graphs.Graph(n, edges), oracle.distances(n, edges))
        graph, dist = graphs[inp.arg]
        key = (inp.arg, kind, None if inp.edges is None else cap)
        if key not in references:
            references[key] = oracle.dimension(dist, kind, key[2])
            known = oracle.KNOWN_OUTER_DIMENSIONS.get(inp.arg)
            if kind == "outer" and known is not None and references[key][0] != known:
                raise BenchmarkError(f"reference outer dimension of {inp.arg} is not {known}")
        size, witness = references[key]
        if size is not None and cap is not None and size > cap:
            size, witness = None, None
        expect = {
            "n": n,
            "kind": kind,
            "max_size": cap,
            "size": size,
            "witness": witness,
            "graph": graph,
            "predicate": predicates[kind],
        }
        argv = ["dimension", inp.arg, "--kind", kind]
        if cap is not None:
            argv += ["--max-size", str(cap)]
        jobs.append(
            Job(
                " ".join(["dimension", _name(inp.arg)] + argv[2:]),
                lambda argv=argv: run_cli(mods.cli, argv),
                check_dimension,
                expect,
            )
        )
    return jobs


# ------------------------------------------------------------------ build

BUILD_SPECS = (
    "g:6,6", "g:3,20", "gplus:5,6", "g:4,10", "g:5,7", "g:7,4",
    "gplus:3,15", "gplus:6,4", "g:8,3", "gplus:4,8", "g:5,6", "g:9,3",
)
FORMATS = ("graph6", "dot", "edgelist", "json")


def build_inputs(seed: int, workdir: Path, tiny: bool) -> list[Input]:
    specs = list(("g:3,4", "gplus:3,3") if tiny else BUILD_SPECS)
    random.Random(f"build:{seed}").shuffle(specs)
    return [Input(spec, extra={"dir": workdir}) for spec in specs]


def _expected_files(e: dict) -> dict[str, str]:
    """The exact text ``gen`` writes in each format."""
    n, edges, labels = e["n"], e["edges"], e["labels"]
    dot = ["graph g {"] + [f'  n{v} [label="{lab}"];' for v, lab in enumerate(labels)]
    dot += [f"  n{u} -- n{v};" for u, v in edges] + ["}"]
    payload = {"n": n, "edges": [[u + 1, v + 1] for u, v in edges], "labels": labels}
    return {
        "graph6": oracle.graph6(n, edges) + "\n",
        "dot": "\n".join(dot) + "\n",
        "edgelist": "\n".join(["u,v"] + [f"{u + 1},{v + 1}" for u, v in edges]) + "\n",
        "json": json.dumps(payload, indent=2) + "\n",
    }


def check_gen(job: Job, result) -> dict[str, float]:
    code, _, err = result
    require(code == 0, f"exit code {code}: {err.strip()[:200]}")
    fmt = job.expect["format"]
    text = job.expect["path"].read_text()
    if fmt == "json":
        require(json.loads(text) == json.loads(job.expect["text"]), "json output differs")
    else:
        require(text == job.expect["text"], f"{fmt} output differs")
    return {}


def check_read_back(job: Job, result) -> dict[str, float]:
    e = job.expect
    from_g6, from_el, dist = result
    for name, g in (("graph6", from_g6), ("edgelist", from_el)):
        require(g.n == e["n"], f"{name} read-back has {g.n} vertices, not {e['n']}")
        require(list(g.edges()) == e["edges"], f"{name} read-back adjacency differs")
    ecc = [max(row) for row in dist]
    require(max(ecc) == e["diameter"], f"diameter {max(ecc)} != {e['diameter']}")
    require(min(ecc) == e["radius"], f"radius {min(ecc)} != {e['radius']}")
    return {}


def build_jobs(inputs: list[Input], mods) -> list[Job]:
    """Per member: four ``gen`` jobs, one per format, then one job that reads
    the graph6 and edge-list files back and computes all-pairs distances."""
    jobs = []
    for index, inp in enumerate(inputs):
        family, d, c = oracle.parse_spec(inp.arg)
        n, edges = oracle.family_graph(family, d, c)
        edges = sorted(edges)
        if family == "g":
            diameter, radius = d - 1, d // 2
        else:
            # gplus has diameter d; its radius has no closed form here.
            ecc = [max(row) for row in oracle.distances(n, edges)]
            if max(ecc) != d:
                raise BenchmarkError(f"reference diameter of {inp.arg} is not {d}")
            diameter, radius = d, min(ecc)
        expect = {
            "n": n,
            "edges": edges,
            "labels": oracle.family_labels(family, d, c),
            "diameter": diameter,
            "radius": radius,
        }
        texts = _expected_files(expect)
        paths = {fmt: inp.extra["dir"] / f"build-{index}.{fmt}" for fmt in FORMATS}
        for fmt, path in paths.items():
            argv = ["gen", inp.arg, "--format", fmt, "--out", str(path)]
            jobs.append(
                Job(
                    f"gen {inp.arg} --format {fmt}",
                    lambda argv=argv: run_cli(mods.cli, argv),
                    check_gen,
                    {"n": n, "format": fmt, "path": path, "text": texts[fmt]},
                )
            )

        def read_back(paths=paths):
            from_g6 = mods.formats.read_graph_auto(paths["graph6"].read_text())
            from_el = mods.formats.read_graph_auto(paths["edgelist"].read_text())
            return from_g6, from_el, mods.graphs.all_pairs_distances(from_g6)

        jobs.append(Job(f"read back {inp.arg}", read_back, check_read_back, expect))
    return jobs


# ----------------------------------------------------------------- verify

# The default battery plus settings where the dimension-search check is
# not dominant (dmax <= 3, or cmax <= 2).
VERIFY_SETTINGS = (
    ((8, 4), (1, 4), (2, 4))
    + tuple((cmax, 3) for cmax in range(1, 9))
    + tuple((cmax, 2) for cmax in range(1, 9))
    + tuple((cmax, 1) for cmax in range(1, 6))
)


def verify_inputs(seed: int, workdir: Path, tiny: bool) -> list[Input]:
    settings = list(((2, 2), (1, 4)) if tiny else VERIFY_SETTINGS)
    random.Random(f"verify:{seed}").shuffle(settings)
    return [Input(f"--cmax {c} --dmax {d}", extra={"cmax": c, "dmax": d}) for c, d in settings]


def check_verify(job: Job, result) -> dict[str, float]:
    e = job.expect
    code, out, err = result
    p = json.loads(out)
    require(p["ok"] is e["ok"], f"report ok is {p['ok']}")
    require(code == (0 if e["ok"] else 1), f"exit code {code}")
    require(p["cmax"] == e["cmax"] and p["dmax"] == e["dmax"], "cmax/dmax not echoed")
    bad = [check["name"] for check in p["checks"] if check["status"] not in ("pass", "info")]
    require(not bad, f"failed checks {bad}")
    return {check["name"]: check["elapsed"] for check in p["checks"]}


def verify_jobs(inputs: list[Input], mods) -> list[Job]:
    jobs = []
    for inp in inputs:
        argv = ["verify", "--json", "--cmax", str(inp.extra["cmax"]), "--dmax", str(inp.extra["dmax"])]
        expect = {"ok": True, "cmax": inp.extra["cmax"], "dmax": inp.extra["dmax"]}
        jobs.append(Job(" ".join(argv), lambda argv=argv: run_cli(mods.cli, argv), check_verify, expect))
    return jobs


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int, Path, bool], list[Input]]
    jobs: Callable[[list[Input], Any], list[Job]]
    spoil_key: str  # the expected answer the smoke test makes wrong


WORKLOADS = {
    "spectrum": Workload(spectrum_inputs, spectrum_jobs, "n"),
    "dimension": Workload(dimension_inputs, dimension_jobs, "n"),
    "build": Workload(build_inputs, build_jobs, "diameter"),
    "verify": Workload(verify_inputs, verify_jobs, "ok"),
}
