"""Command-line interface.

Every invocation prints exactly one JSON envelope on stdout:

    {"command": ..., "status": "ok"|"error"|"counterexample",
     "payload": ..., "version": ...}

Diagnostics go to stderr.  Exit codes: 0 ok, 1 usage or domain error,
2 counterexample found (verify subcommands only).  Floats are rounded to
12 significant digits, and those below 1e-12 in magnitude print as 0.0, so
identical invocations are byte-identical and solver round-off stays off
stdout.

Graph input is one graph6 argument, the graph6 lines of --file PATH, or,
when neither is given, the graph6 lines of stdin.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from . import constructions, corpus, factors, oracle, spectral, theorems
from .graph import Graph
from .graph6 import Graph6Error, parse_graph6, to_graph6


class UsageError(Exception):
    def __init__(self, message: str, command: str | None = None):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the envelope
    # machinery (exit 1) instead, naming the subcommand from the prog of the
    # subparser that failed ("specfactor oracle deficiency")
    def error(self, message: str):
        raise UsageError(message, self.prog.partition(" ")[2] or None)


def _sanitize(obj):
    if isinstance(obj, float):
        return 0.0 if abs(obj) < 1e-12 else float(f"{obj:.12g}")
    if dataclasses.is_dataclass(obj):  # fields in order are the payload keys
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _read_graphs(args) -> list[Graph]:
    """Graphs from the graph6 argument, --file or stdin; bad lines name their number."""
    if args.graph and args.file:
        raise UsageError("pass a graph6 argument or --file, not both")
    if args.graph:
        return [parse_graph6(args.graph)]
    if args.file:
        with open(args.file, encoding="ascii") as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin.readlines()
    graphs = []
    for i, ln in enumerate(lines, 1):
        if ln.strip():
            try:
                graphs.append(parse_graph6(ln))
            except Graph6Error as exc:
                raise ValueError(f"line {i}: {exc}") from None
    if not graphs:
        raise UsageError("no graph input (pass graph6, --file PATH, or stdin lines)")
    return graphs


def _batch(results: list):
    """One result is the payload itself; several go under "results"."""
    return results[0] if len(results) == 1 else {"results": results}


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


# -- command bodies: each run(args) returns (payload, status) ---------------


def _per_graph(fn):
    """The run of a command that answers fn(graph, args) for each input graph."""
    return lambda args: (_batch([fn(g, args) for g in _read_graphs(args)]), "ok")


def _verdict(payload, passed: bool):
    return payload, "ok" if passed else "counterexample"


def _judged(report):
    """A campaign's payload and status: a counterexample unless it passed."""
    return _verdict(report.to_dict(), report.passed)


def _graph6s(graphs: list[Graph]):
    return {"count": len(graphs), "graphs": [to_graph6(g) for g in graphs]}, "ok"


def _extremal(args):
    params = {k: getattr(args, k) for k in ("n", "r", "m") if getattr(args, k) is not None}
    if args.lengths:
        params["lengths"] = _int_list(args.lengths)
    # a family's order is at least each parameter it reads, so refuse what
    # eigenvalues would before building it
    cap = spectral.MAX_ORDER
    for name in constructions.parameters(args.family):
        size = params.get(name) or 0
        if isinstance(size, tuple):  # a cycle layout
            size = sum(map(abs, size))
        if size > cap:
            raise ValueError(f"--{name} gives {size} or more vertices, above the cap of {cap}")
    g = constructions.build(args.family, **params)
    lambda1 = spectral.eigenvalues(g)[0] if g.n else None
    return {
        "params": {"family": args.family, **params},
        "graph6": to_graph6(g),
        "n": g.n,
        "edges": g.edge_count,
        "lambda1": lambda1,
    }, "ok"


def _factor(g: Graph, args) -> dict:
    rep = factors.k_factor(g, args.k)
    return {
        "exists": rep.exists,
        "deficiency": rep.deficiency,
        "edges": [list(e) for e in rep.edges] if rep.exists else None,
    }


def _oracle_delta(g: Graph, args) -> dict:
    s, t = _int_list(args.s), _int_list(args.t)
    return {"s": s, "t": t, **dataclasses.asdict(oracle.delta(g, args.k, (s, t)))}


def _oracle_deficiency(g: Graph, args) -> dict:
    value, pair = oracle.brute_force_deficiency(g, args.k)
    return {"deficiency": value, **dataclasses.asdict(pair)}


def _regular_corpus(r: int, nmax: int) -> list[Graph]:
    out: list[Graph] = []
    for n in range(r + 1, nmax + 1):
        if (n * r) % 2 == 0:
            out.extend(corpus.enumerate_connected_regular(n, r))
    return out


def _lemma(args):
    results = [theorems.check_lemma_3_1(g, args.k, args.m) for g in _read_graphs(args)]
    return _verdict(_batch(results), all(not res.applicable or res.satisfied for res in results))


def _ordering(args):
    rep = theorems.ordering_report(args.r)
    return _verdict(rep, rep["min_is_f1"])


def _build_parser() -> _Parser:
    top = _Parser(prog="specfactor", description=__doc__.splitlines()[0])
    human_help = "plain text instead of JSON"
    top.add_argument("--human", action="store_true", help=human_help)
    sub = top.add_subparsers(dest="command", required=True)

    def group(name, helptext):
        return sub.add_parser(name, help=helptext).add_subparsers(dest="sub", required=True)

    def leaf(parent, name, helptext, run, *ints, graph=False, **defaults):
        """Declare one command: integer flags are required unless given a default."""
        p = parent.add_parser(name, help=helptext)
        p.set_defaults(run=run, command=p.prog.partition(" ")[2])
        # SUPPRESS keeps a leaf without the flag from resetting a top-level one
        p.add_argument("--human", action="store_true", default=argparse.SUPPRESS, help=human_help)
        for flag in ints:
            required = flag not in defaults
            p.add_argument(f"--{flag}", type=int, required=required, default=defaults.get(flag))
        if graph:
            p.add_argument("graph", nargs="?",
                           help="graph6 string; stdin lines if neither it nor --file is given")
            p.add_argument("--file", metavar="PATH",
                           help="file of graph6 lines, one graph per line")
        return p

    spectrum = _per_graph(lambda g, a: {"n": g.n, "eigenvalues": list(spectral.eigenvalues(g))})
    leaf(sub, "spectrum", "adjacency eigenvalues, descending", spectrum, graph=True)
    p = leaf(sub, "threshold", "registered spectral threshold value",
             lambda a: (getattr(spectral, a.family)(a.r, a.m), "ok"), "r", "m")
    p.add_argument("--family", choices=["rho1", "rho2"], required=True)
    p = leaf(sub, "extremal", "build a named construction", _extremal,
             "n", "r", "m", n=None, r=None, m=None)
    p.add_argument("--family", required=True)
    p.add_argument("--lengths", help="comma-separated cycle lengths")
    leaf(sub, "factor", "k-factor existence and edges", _per_graph(_factor), "k", graph=True)
    leaf(sub, "deficiency", "k-deficiency via the matching reduction",
         _per_graph(lambda g, a: {"deficiency": factors.deficiency(g, a.k)}), "k", graph=True)
    leaf(sub, "critical", "k-criticality test",
         _per_graph(lambda g, a: {"critical": factors.is_k_critical(g, a.k)}), "k", graph=True)

    osub = group("oracle", "exhaustive Tutte-condition evaluations")
    q = leaf(osub, "delta", "evaluate one (S,T) pair", _per_graph(_oracle_delta), "k", graph=True)
    q.add_argument("--s", default="", help="comma-separated vertex list")
    q.add_argument("--t", default="", help="comma-separated vertex list")
    leaf(osub, "deficiency", "sweep all (S,T) pairs for the deficiency",
         _per_graph(_oracle_deficiency), "k", graph=True)
    exists = _per_graph(lambda g, a: {"exists": oracle.brute_force_has_k_factor(g, a.k)})
    leaf(osub, "factor", "k-factor existence by exhaustive sweep", exists, "k", graph=True)

    vsub = group("verify", "run a verification campaign")
    for name, fn in (("thm2.1", theorems.verify_thm_2_1), ("thm2.2", theorems.verify_thm_2_2)):
        leaf(vsub, name, "class-minimality campaign",
             lambda a, fn=fn: _judged(fn(a.r, a.m, a.samples, seed=a.seed)),
             "r", "m", "samples", "seed", samples=500, seed=0)
    for name, fn in (("thm3.2", theorems.verify_thm_3_2), ("thm3.3", theorems.verify_thm_3_3)):
        leaf(vsub, name, "eigenvalue-to-factor sweep over regular corpora",
             lambda a, fn=fn: _judged(fn(a.r, a.k, a.m, _regular_corpus(a.r, a.nmax))),
             "r", "k", "m", "nmax", nmax=10)
    leaf(vsub, "lemma3.1", "structural deficiency certificate", _lemma, "k", "m", graph=True)
    leaf(vsub, "ordering", "cubic root ordering report", _ordering, "r")

    gsub = group("gen", "emit graph corpora as graph6")
    leaf(gsub, "connected", "all connected graphs on n vertices",
         lambda a: _graph6s(corpus.enumerate_connected_graphs(a.n)), "n")
    leaf(gsub, "regular", "all connected r-regular graphs on n vertices",
         lambda a: _graph6s(corpus.enumerate_connected_regular(a.n, a.r)), "n", "r")
    leaf(gsub, "random-regular", "one pairing-model regular graph",
         lambda a: _graph6s([corpus.random_regular(a.n, a.r, a.seed)]), "n", "r", "seed", seed=0)
    q = leaf(gsub, "class-member", "one sampled irregular class member",
             lambda a: _graph6s([corpus.random_class_member(a.r, a.m, a.parity, a.seed)]),
             "r", "m", "seed", seed=0)
    q.add_argument("--parity", choices=["even", "odd"], default="even")
    return top


def _emit(command: str, status: str, payload, human: bool) -> None:
    envelope = {
        "command": command,
        "status": status,
        "payload": _sanitize(payload),
        "version": __version__,
    }
    if human:
        _print_human(envelope)
    else:
        print(json.dumps(envelope))


def _print_human(envelope: dict) -> None:
    def walk(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            for k, v in value.items():
                walk(k, v, depth + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}: [{len(value)} items]")
            for i, v in enumerate(value):
                walk(str(i), v, depth + 1)
        else:
            print(f"{pad}{key}: {value}")

    for k in ("command", "status", "version"):
        print(f"{k}: {envelope[k]}")
    walk("payload", envelope["payload"], 0)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    command = "?"
    human = "--human" in argv
    try:
        args, extra = parser.parse_known_args(argv)
        human, command = args.human, args.command
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        payload, status = args.run(args)
    except UsageError as exc:
        command = exc.command or command
        print(f"usage error: {exc}", file=sys.stderr)
        _emit(command, "error", {"error": str(exc)}, human)
        return 1
    except (ValueError, Graph6Error, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit(command, "error", {"error": str(exc)}, human)
        return 1
    _emit(command, status, payload, human)
    return 2 if status == "counterexample" else 0


if __name__ == "__main__":
    sys.exit(main())
