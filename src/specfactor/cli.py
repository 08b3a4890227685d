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


def _batch(results: list[dict]) -> dict:
    """One result is the payload itself; several go under "results"."""
    return results[0] if len(results) == 1 else {"results": results}


def _per_graph(args, fn) -> dict:
    return _batch([fn(g) for g in _read_graphs(args)])


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


# -- subcommand bodies: each returns (payload, status) ----------------------


def _cmd_spectrum(args):
    def one(g: Graph) -> dict:
        return {"n": g.n, "eigenvalues": list(spectral.eigenvalues(g))}

    return _per_graph(args, one), "ok"


def _cmd_threshold(args):
    fn = spectral.rho1 if args.family == "rho1" else spectral.rho2
    t = fn(args.r, args.m)
    return {"value": t.value, "kind": t.kind, "r": t.r, "m": t.m}, "ok"


def _cmd_extremal(args):
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
    payload = {
        "params": {"family": args.family, **params},
        "graph6": to_graph6(g),
        "n": g.n,
        "edges": g.edge_count,
        "lambda1": lambda1,
    }
    return payload, "ok"


def _cmd_factor(args):
    def one(g: Graph) -> dict:
        rep = factors.k_factor(g, args.k)
        return {
            "exists": rep.exists,
            "deficiency": rep.deficiency,
            "edges": [list(e) for e in rep.edges] if rep.exists else None,
        }

    return _per_graph(args, one), "ok"


def _cmd_deficiency(args):
    return _per_graph(args, lambda g: {"deficiency": factors.deficiency(g, args.k)}), "ok"


def _cmd_critical(args):
    return _per_graph(args, lambda g: {"critical": factors.is_k_critical(g, args.k)}), "ok"


def _cmd_oracle(args):
    def one(g: Graph) -> dict:
        if args.sub == "delta":
            s, t = _int_list(args.s), _int_list(args.t)
            bd = oracle.delta(g, args.k, (s, t))
            return {
                "s": list(s),
                "t": list(t),
                "k_s": bd.k_s,
                "degree_sum": bd.degree_sum,
                "k_t": bd.k_t,
                "tau": bd.tau,
                "delta": bd.delta,
            }
        if args.sub == "deficiency":
            value, pair = oracle.brute_force_deficiency(g, args.k)
            return {"deficiency": value, "s": list(pair.s), "t": list(pair.t)}
        return {"exists": oracle.brute_force_has_k_factor(g, args.k)}

    return _per_graph(args, one), "ok"


def _regular_corpus(r: int, nmax: int) -> list[Graph]:
    out: list[Graph] = []
    for n in range(r + 1, nmax + 1):
        if (n * r) % 2 == 0:
            out.extend(corpus.enumerate_connected_regular(n, r))
    return out


def _cmd_verify(args):
    if args.sub == "thm2.1":
        report = theorems.verify_thm_2_1(args.r, args.m, args.samples, seed=args.seed)
    elif args.sub == "thm2.2":
        report = theorems.verify_thm_2_2(args.r, args.m, args.samples, seed=args.seed)
    elif args.sub == "thm3.2":
        report = theorems.verify_thm_3_2(args.r, args.k, args.m, _regular_corpus(args.r, args.nmax))
    elif args.sub == "thm3.3":
        report = theorems.verify_thm_3_3(args.r, args.k, args.m, _regular_corpus(args.r, args.nmax))
    elif args.sub == "lemma3.1":
        st = None
        if args.s or args.t:
            st = (_int_list(args.s), _int_list(args.t))
        results = [
            theorems.check_lemma_3_1(g, args.k, args.m, st=st)
            for g in _read_graphs(args)
        ]
        ok = all(not res.applicable or res.satisfied for res in results)
        return _batch([res.to_dict() for res in results]), "ok" if ok else "counterexample"
    else:
        rep = theorems.ordering_report(args.r)
        return rep, "ok" if rep["min_is_f1"] else "counterexample"
    return report.to_dict(), "ok" if report.passed else "counterexample"


def _cmd_gen(args):
    if args.sub == "connected":
        graphs = corpus.enumerate_connected_graphs(args.n)
    elif args.sub == "regular":
        graphs = corpus.enumerate_connected_regular(args.n, args.r)
    elif args.sub == "random-regular":
        graphs = [corpus.random_regular(args.n, args.r, args.seed)]
    else:
        graphs = [
            corpus.random_class_member(args.r, args.m, args.parity, args.seed)
        ]
    return {"count": len(graphs), "graphs": [to_graph6(g) for g in graphs]}, "ok"


def _build_parser() -> _Parser:
    top = _Parser(prog="specfactor", description=__doc__.splitlines()[0])
    top.add_argument("--human", action="store_true", help="plain text instead of JSON")
    sub = top.add_subparsers(dest="command", required=True)

    def add_graph_arg(p):
        p.add_argument("graph", nargs="?", help="graph6 string; stdin lines if neither it nor --file is given")
        p.add_argument("--file", metavar="PATH", help="file of graph6 lines, one graph per line")

    p = sub.add_parser("spectrum", help="adjacency eigenvalues, descending")
    add_graph_arg(p)

    p = sub.add_parser("threshold", help="registered spectral threshold value")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--family", choices=["rho1", "rho2"], required=True)

    p = sub.add_parser("extremal", help="build a named construction")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--lengths", help="comma-separated cycle lengths")

    for name, helptext in (
        ("factor", "k-factor existence and edges"),
        ("deficiency", "k-deficiency via the matching reduction"),
        ("critical", "k-criticality test"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--k", type=int, required=True)
        add_graph_arg(p)

    p = sub.add_parser("oracle", help="exhaustive Tutte-condition evaluations")
    osub = p.add_subparsers(dest="sub", required=True)
    q = osub.add_parser("delta", help="evaluate one (S,T) pair")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--s", default="", help="comma-separated vertex list")
    q.add_argument("--t", default="", help="comma-separated vertex list")
    add_graph_arg(q)
    for name, helptext in (
        ("deficiency", "sweep all (S,T) pairs for the deficiency"),
        ("factor", "k-factor existence by exhaustive sweep"),
    ):
        q = osub.add_parser(name, help=helptext)
        q.add_argument("--k", type=int, required=True)
        add_graph_arg(q)

    p = sub.add_parser("verify", help="run a verification campaign")
    vsub = p.add_subparsers(dest="sub", required=True)
    for name in ("thm2.1", "thm2.2"):
        q = vsub.add_parser(name, help="class-minimality campaign")
        q.add_argument("--r", type=int, required=True)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--samples", type=int, default=500)
        q.add_argument("--seed", type=int, default=0)
    for name in ("thm3.2", "thm3.3"):
        q = vsub.add_parser(name, help="eigenvalue-to-factor sweep over regular corpora")
        q.add_argument("--r", type=int, required=True)
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--m", type=int, required=True)
        q.add_argument("--nmax", type=int, default=10)
    q = vsub.add_parser("lemma3.1", help="structural deficiency certificate")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--s", default="", help="known optimal S, comma-separated")
    q.add_argument("--t", default="", help="known optimal T, comma-separated")
    add_graph_arg(q)
    q = vsub.add_parser("ordering", help="cubic root ordering report")
    q.add_argument("--r", type=int, required=True)

    p = sub.add_parser("gen", help="emit graph corpora as graph6")
    gsub = p.add_subparsers(dest="sub", required=True)
    q = gsub.add_parser("connected", help="all connected graphs on n vertices")
    q.add_argument("--n", type=int, required=True)
    q = gsub.add_parser("regular", help="all connected r-regular graphs on n vertices")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q = gsub.add_parser("random-regular", help="one pairing-model regular graph")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q = gsub.add_parser("class-member", help="one sampled irregular class member")
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--parity", choices=["even", "odd"], default="even")
    q.add_argument("--seed", type=int, default=0)

    return top


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "threshold": _cmd_threshold,
    "extremal": _cmd_extremal,
    "factor": _cmd_factor,
    "deficiency": _cmd_deficiency,
    "critical": _cmd_critical,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


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
        human = args.human
        command = args.command
        if getattr(args, "sub", None):
            command = f"{args.command} {args.sub}"
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        payload, status = _HANDLERS[args.command](args)
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
