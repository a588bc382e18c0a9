"""Command-line interface.

Subcommands: ``catalog`` (dump a group's irreps), ``enumerate`` (list the
d-dimensional representations and channel labels), ``run`` (full sweep to a
JSON manifest), ``classify`` (re-test stored Kraus sets), ``report``
(render a manifest).  Complex numbers in all JSON output are [re, im]
pairs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channels import matrix_to_json
from .errors import GcecError
from .extremality import DEFAULT_TOL_RANK
from .groups import infer_kind, props
from .pipeline import (
    classify_file,
    load_manifest,
    manifest_to_json,
    report,
    run_enumeration,
)
from .reps import enumerate_reps, omega_candidates


def _add_group_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--group", required=True, help="catalog name, e.g. S3, A4, Z2, D5, SO3, SU2")
    sub.add_argument("--dim", required=True, type=int, help="Hilbert-space dimension d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcec",
        description="Construct and classify group-covariant extreme quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="dump a group's irreps")
    _add_group_args(p_cat)
    p_cat.add_argument("--format", choices=("json", "text"), default="text")

    p_enum = sub.add_parser("enumerate", help="list d-dimensional representations")
    _add_group_args(p_enum)
    p_enum.add_argument("--nonunitary-only", action="store_true")
    p_enum.add_argument("--format", choices=("json", "text"), default="text")

    p_run = sub.add_parser("run", help="full enumeration sweep")
    _add_group_args(p_run)
    p_run.add_argument("--tol-rank", type=float, default=DEFAULT_TOL_RANK)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--nonunitary-only", action="store_true", help="skip 1-dimensional channel labels")
    p_run.add_argument(
        "--reps",
        default=None,
        help="comma-separated representation labels restricting the sweep, e.g. '1+2,1'+2'",
    )
    p_run.add_argument("--out", default=None, help="write the JSON manifest here")
    p_run.add_argument("--format", choices=("json", "text"), default="text")

    p_cls = sub.add_parser("classify", help="re-test Kraus sets stored in JSON")
    p_cls.add_argument("--in", dest="path", required=True)
    p_cls.add_argument("--tol-rank", type=float, default=DEFAULT_TOL_RANK)
    p_cls.add_argument("--out", default=None, help="write verdicts as JSON here")

    p_rep = sub.add_parser("report", help="render a stored manifest")
    p_rep.add_argument("--in", dest="path", required=True)
    p_rep.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _json(obj) -> str:
    """The small printers' JSON text, numpy arrays as nested lists."""
    return json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_catalog(args) -> int:
    payload = props(args.group, infer_kind(args.group), args.dim)
    if args.format == "json":
        obj = {
            "group": payload.group.name,
            "kind": payload.group.kind,
            "num_generators": payload.group.num_generators,
            "num_irreps": payload.num_irreps,
            "irrep_dims": list(payload.irrep_dims),
            "num_reps": payload.num_reps,
            "generator_names": list(payload.group.generator_names),
            "irreps": [
                {
                    "index": ir.index,
                    "label": ir.label,
                    "dim": ir.dim,
                    "generators": [matrix_to_json(m) for m in ir.generator_matrices],
                }
                for ir in payload.group.irreps
            ],
        }
        print(_json(obj))
    else:
        print(f"{payload.group.name} ({payload.group.kind}), "
              f"generators: {', '.join(payload.group.generator_names)}")
        for ir in payload.group.irreps:
            print(f"  irrep {ir.index}: label {ir.label!r}, dim {ir.dim}")
        print(f"reps of dim {args.dim}: {payload.num_reps}")
    return 0


def _cmd_enumerate(args) -> int:
    payload = props(args.group, infer_kind(args.group), args.dim)
    labels = enumerate_reps(payload.group, args.dim)
    omegas = omega_candidates(payload.group, args.dim)
    if args.nonunitary_only:
        omegas = [om for om in omegas if om.dim >= 2]
    if args.format == "json":
        obj = {
            "group": args.group,
            "d": args.dim,
            "reps": [lab.text for lab in labels],
            "omega_candidates": [om.label for om in omegas],
            "total_instances": len(labels) ** 2 * len(omegas),
        }
        print(_json(obj))
    else:
        print(f"{len(labels)} representations of {args.group} at d={args.dim}:")
        for lab in labels:
            print(f"  {lab.text}")
        print(f"{len(omegas)} channel labels: {', '.join(om.label for om in omegas)}")
        print(f"instances: {len(labels) ** 2 * len(omegas)}")
    return 0


def _cmd_run(args) -> int:
    reps = None if args.reps is None else [t for t in args.reps.split(",") if t]
    manifest = run_enumeration(
        args.group,
        None,
        args.dim,
        tol_rank=args.tol_rank,
        seed=args.seed,
        nonunitary_only=args.nonunitary_only,
        reps=reps,
    )
    text = manifest_to_json(manifest) if args.out or args.format == "json" else ""
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text if args.format == "json" else report(manifest, "text"))
    return 0


def _cmd_classify(args) -> int:
    results = classify_file(args.path, tol_rank=args.tol_rank)
    text = _json(results) + "\n"
    if args.out:
        _write(args.out, text)
    sys.stdout.write(text)
    return 0


def _cmd_report(args) -> int:
    manifest = load_manifest(args.path)
    sys.stdout.write(report(manifest, args.format))
    return 0


_COMMANDS = {
    "catalog": _cmd_catalog,
    "enumerate": _cmd_enumerate,
    "run": _cmd_run,
    "classify": _cmd_classify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GcecError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
