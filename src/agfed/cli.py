"""Command-line entry points.

``agfed run``     one experiment from a config file
``agfed compare`` both algorithms on identical data/seeds, side by side

On failure both commands print a single machine-readable error line
(``error: <class>: <message>``) to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import load_config
from .harness import compare_algorithms, run_experiment_full


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to the INI config file")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="SECTION.KEY=VALUE", help="override any config field")
    sub.add_argument("--out-dir", default=None, help="output directory override")
    sub.add_argument("--seed", type=int, default=None, help="experiment seed override")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _parse_overrides(args.overrides),
                      seed=args.seed, out_dir=args.out_dir)
    run = run_experiment_full(cfg)
    last = run.reports[-1] if run.reports else None
    print(f"completed {len(run.reports)} rounds "
          f"(algorithm={cfg.algorithm.algorithm}, seed={cfg.seed})")
    if last is not None:
        lam = " ".join(f"{v:.4f}" for v in last.lam)
        print(f"final worst-domain loss: {last.worst_domain_loss:.6g}")
        print(f"final domain weights:    {lam}")
        if run.oracle is not None and last.model_summary:
            print(f"learned value: {last.model_summary[0]:.6g} (oracle {run.oracle:.6g})")
    if cfg.out_dir is not None:
        print(f"metrics written to {Path(cfg.out_dir) / cfg.csv_name}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _parse_overrides(args.overrides),
                      seed=args.seed, out_dir=args.out_dir)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ValueError("--algorithms must name at least one algorithm")
    if cfg.out_dir is not None:  # a failed comparison leaves no earlier summary
        Path(cfg.out_dir, "compare_summary.csv").unlink(missing_ok=True)
    outcomes = compare_algorithms(cfg, algorithms)

    p = cfg.task.p
    headers = ["algorithm"] + [f"L_{i}" for i in range(p)] + ["worst", "difference"]
    has_acc = any(o.per_domain_accuracy is not None for o in outcomes)
    if has_acc:
        headers += [f"acc_{i}" for i in range(p)]
    rows = []
    for o in outcomes:
        row = [o.algorithm] + [f"{v:.6g}" for v in o.per_domain_loss]
        row += [f"{o.worst_domain_loss:.6g}", f"{o.domain_gap:.6g}"]
        if has_acc:  # one task: every outcome has accuracies or none has
            row += [f"{v:.6g}" for v in o.per_domain_accuracy]
        rows.append(row)

    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))

    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary = out / "compare_summary.csv"
        with summary.open("w") as fh:
            fh.write(",".join(headers) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        print(f"summary written to {summary}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Building it costs several parses. A parse copies ``--set``'s default
    list before appending to it, so no call sees another's overrides.
    """
    parser = argparse.ArgumentParser(
        prog="agfed",
        description="Deterministic federated simulator: min-max (agnostic) "
                    "federated averaging and a FedAvg baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    _add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several algorithms on identical data")
    _add_common(cmp_p)
    cmp_p.add_argument("--algorithms", default="fedavg,afa",
                       help="comma-separated algorithm list (default: fedavg,afa)")
    cmp_p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced as one machine-readable line
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
