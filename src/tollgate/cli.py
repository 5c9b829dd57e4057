"""Command line front end.

Subcommands mirror the library layers: ``enumerate`` lists feasible paths,
``reduce`` reports graph shrinkage, ``build`` writes a model as LP text,
``generate`` writes a random instance, and ``sweep`` runs the experiment
grid to CSV.
"""

from __future__ import annotations

import argparse
import glob as globlib
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bigm import compute_bigm
from .enumeration import enumerate_all, perturbed
from .experiments import prepared, run_sweep, summarize, write_csv, write_summary
from .formulations import (
    FORMULATIONS,
    BuildError,
    assemble_hybrid,
    build_single,
    get_kind,
)
from .generator import GenConfig, GenError, generate, parse_topology
from .lp_format import write_lp
from .network import InstanceError, ProblemInstance, load_instance, serialize_instance
from .preprocess import ReducedGraph, path_based_reduce, spgm_transform
from .solver import CommandBackend, SolverError

KIND_LABELS = ", ".join(k.label for k in FORMULATIONS)


def _load(path, seed: Optional[int]) -> ProblemInstance:
    """An instance file, its costs perturbed at ``seed`` when one is given."""
    instance = load_instance(path)
    return instance if seed is None else perturbed(instance, seed)


def _cmd_enumerate(args) -> int:
    instance = _load(args.instance, args.perturb)
    for k, result in enumerate(enumerate_all(instance, args.cap)):
        bfset = result.feasible_set()
        com = instance.commodities[k]
        state = "exhaustive" if bfset.exhaustive else "truncated"
        print(
            f"# commodity {k}: {com.origin}->{com.destination}, "
            f"{len(bfset)} paths ({state})"
        )
        for path in bfset.paths:
            nodes = ",".join(str(n) for n in path.nodes)
            print(f"{path.cost}\t{nodes}")
    return 0


def _cmd_reduce(args) -> int:
    instance = _load(args.instance, args.perturb)
    enum = enumerate_all(instance, args.cap) if args.method == "paths" else None
    full = ReducedGraph.identity(instance.network).stats()
    print("commodity\tnodes\tarcs\ttolled")
    for k, com in enumerate(instance.commodities):
        if args.method == "paths":
            bfset = enum[k].feasible_set()
            if not bfset.exhaustive:
                print(f"{k}\ttruncated feasible set; raise --cap")
                continue
            reduced = path_based_reduce(instance.network, bfset).stats()
        else:
            reduced = spgm_transform(instance.network, com).stats()
        print(
            f"{k}\t{full['nodes']}->{reduced['nodes']}"
            f"\t{full['arcs']}->{reduced['arcs']}"
            f"\t{full['tolled']}->{reduced['tolled']}"
        )
    return 0


def _cmd_build(args) -> int:
    if bool(args.kind) == bool(args.main):
        raise BuildError("pass either --kind, or --main with --fallback and --breakpoint")
    instance = _load(args.instance, args.perturb)
    kind = get_kind(args.kind or args.main)
    if kind.needs_cut_loop:
        raise BuildError(
            f"{kind} is only exact under the feasibility cut loop and has "
            "no static LP form; solve it through the sweep or the API"
        )
    if args.kind:
        needs_enum = kind.needs_paths or args.preprocess == "paths"
        enum = enumerate_all(instance, args.cap) if needs_enum else None
        # Only an exhaustive set can be modeled with path rows, so only its
        # path bounds are needed.
        bfsets = (
            {k: s for k, s in enumerate(r.feasible_set() for r in enum) if s.exhaustive}
            if enum
            else None
        )
        bigm = compute_bigm(instance.network, instance.commodities, bfsets)
        hybrid = build_single(
            instance, kind, bigm, enum, preprocess=args.preprocess,
            paper_exact=args.paper_exact,
        )
    else:
        if args.breakpoint is None:
            raise BuildError("--main needs --breakpoint")
        prep = prepared(instance, args.breakpoint)
        hybrid = assemble_hybrid(
            instance, args.breakpoint, kind, args.fallback, prep.bigm,
            prep.enum, paper_exact=args.paper_exact, plan=prep.plan,
        )
    text = write_lp(hybrid.ir)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {len(hybrid.ir.names)} variables, "
              f"{len(hybrid.ir.tags)} rows")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_generate(args) -> int:
    cfg = GenConfig(
        topology=parse_topology(args.topology),
        num_commodities=args.commodities,
        toll_ratio=args.toll_ratio,
        cost_low=args.cost_low,
        cost_high=args.cost_high,
        high_cost_fraction=args.high_cost_fraction,
        seed=args.seed,
    )
    instance = generate(cfg)
    text = serialize_instance(instance) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {instance.label}")
    else:
        sys.stdout.write(text)
    return 0


def _collect_instances(
    patterns: Sequence[str], seed: Optional[int]
) -> list[ProblemInstance]:
    paths: list[Path] = []
    for pattern in patterns:
        p = Path(pattern)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.npp")))
        elif p.exists():
            paths.append(p)
        else:
            matches = sorted(Path(m) for m in globlib.glob(pattern))
            if not matches:
                raise InstanceError(f"no instance files match {pattern!r}")
            paths.extend(matches)
    if not paths:
        raise InstanceError("no instance files given")
    return [_load(p, seed) for p in paths]


def _cmd_sweep(args) -> int:
    instances = _collect_instances(args.instances, args.perturb)
    kinds = [get_kind(label) for label in args.kinds.split(",") if label]
    breakpoints = args.breakpoints
    if not kinds or not breakpoints:
        raise BuildError("--kinds and --breakpoints must be non-empty")
    backend = CommandBackend(args.solver_cmd) if args.solver_cmd else None
    records = run_sweep(
        instances,
        kinds,
        breakpoints,
        budget=args.budget,
        jobs=args.jobs,
        backend=backend,
        paper_exact=args.paper_exact,
    )
    if args.out:
        with open(args.out, "w", newline="") as stream:
            write_csv(records, stream)
        print(f"wrote {args.out}: {len(records)} runs")
    else:
        write_csv(records, sys.stdout)
    if args.summary:
        with open(args.summary, "w", newline="") as stream:
            write_summary(summarize(records), stream)
        print(f"wrote {args.summary}")
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_seconds(text: str) -> float:
    """An argparse type: a finite number of seconds above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(
            f"expected a positive number of seconds, got {text!r}"
        )
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(n) for n in text.split(",") if n]


def _add_perturb(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--perturb", type=int, default=None, metavar="SEED",
                        help="break cost ties with seeded noise first")


def _add_paper_exact(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--paper-exact", action="store_true",
        help="build CS1, VFCS1, PACS1 and PCS1 in the paper's form, without "
             "the strong-duality inequality that tightens their relaxation",
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tollgate",
        description="Toll pricing toolkit: enumeration, models, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list each commodity's feasible paths")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=_positive_int, default=None, help="stop after this many paths")
    _add_perturb(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("reduce", help="report per-commodity graph reduction")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=("paths", "spgm"), default="paths")
    p.add_argument("--cap", type=_positive_int, default=None)
    _add_perturb(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("build", help="write a model as LP text")
    p.add_argument("--instance", required=True)
    p.add_argument("--kind", help=f"pure formulation: one of {KIND_LABELS}")
    p.add_argument("--main", help="hybrid: kind for small feasible sets")
    p.add_argument("--fallback", default="STD", help="hybrid: arc-arc kind for the rest")
    p.add_argument("--breakpoint", type=_positive_int, default=None,
                   help="hybrid: feasible-set size limit")
    p.add_argument("--preprocess", choices=("paths", "spgm", "none"), default="paths")
    p.add_argument("--cap", type=_positive_int, default=None, help="enumeration cap for --kind")
    p.add_argument("--out", help="output path (stdout when omitted)")
    _add_perturb(p)
    _add_paper_exact(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("generate", help="write a random instance")
    p.add_argument("--topology", required=True, help="grid:RxC, delaunay:N, or voronoi:N")
    p.add_argument("--commodities", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--toll-ratio", type=float, default=0.20)
    p.add_argument("--cost-low", type=int, default=5)
    p.add_argument("--cost-high", type=int, default=35)
    p.add_argument("--high-cost-fraction", type=float, default=0.20)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("sweep", help="run the experiment grid to CSV")
    p.add_argument("--instances", nargs="+", required=True,
                   help="instance files, directories, or globs")
    p.add_argument("--kinds", required=True, help="comma-separated kind labels")
    p.add_argument("--breakpoints", type=_positive_ints, required=True,
                   help="comma-separated sizes")
    p.add_argument("--budget", type=_positive_seconds, default=60.0, help="seconds per run")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", help="results CSV path (stdout when omitted)")
    p.add_argument("--summary", help="also write a per-(kind,N) summary CSV")
    p.add_argument("--solver-cmd", help="external solver template with {lp} and {sol}")
    _add_perturb(p)
    _add_paper_exact(p)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (InstanceError, BuildError, GenError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left early (``tollgate sweep ... | head -1``).  Point
        # fd 1 at the null device so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OSError as exc:
        # An unreadable or missing input file, an unwritable output path.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
