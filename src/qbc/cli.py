"""Command-line interface.

Three subcommands: compute expands a single polynomial at a configured
parameter point, verify runs a named identity suite and reports per-case
verdicts, cache inspects or manages the operator-oracle store.  Exit codes:
0 success / all cases pass, 1 some case failed, 2 bad invocation or
configuration, or an oracle cache that cannot be read or written, 3 the
exact arithmetic hit a degenerate point.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

from .askey_wilson import aw_poly, fourfold_poly
from .b2 import B2Weight, f_b2_poly
from .errors import CacheError, QbcError
from .koornwinder import CACHE_ENV, cache_root, clear_cache, g_series, koorn_oracle
from .macdonald_bcd import FAMILY_B, FAMILY_C, FAMILY_D, mac_row
from .suites import (
    SUITE_NAMES,
    RunConfig,
    default_config,
    family_tag,
    koornwinder_rows,
    lassalle_rows,
    run_suite,
)

COMPUTE_TARGETS = (
    "aw",
    "fourfold",
    "koornwinder",
    "macdonald-b",
    "macdonald-c",
    "macdonald-d",
    "b2",
    "g-series",
)

_FAMILY_BY_LETTER = {"b": FAMILY_B, "c": FAMILY_C, "d": FAMILY_D}


class UsageError(Exception):
    """Bad invocation or configuration; mapped to exit code 2."""


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return value


def _common_flags(p) -> None:
    p.add_argument("--config", help="JSON file overriding the packaged defaults")
    p.add_argument(
        "--json", action="store_true", help="emit a JSON document instead of text"
    )
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--cache-dir", dest="cache_dir", help="oracle cache directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbc",
        description="Exact expansions and identity checks for one-row "
        "q-orthogonal polynomial summation formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="expand one polynomial and print it")
    comp.add_argument("target", choices=COMPUTE_TARGETS)
    comp.add_argument(
        "--n",
        type=_nonneg,
        help="row weight (aw, fourfold) or number of variables (other targets)",
    )
    comp.add_argument("--r", type=_nonneg, help="row length")
    comp.add_argument("--r1", type=_nonneg, help="first weight coordinate (b2)")
    comp.add_argument("--r2", type=_nonneg, help="second weight coordinate (b2)")
    comp.add_argument(
        "--point", type=int, default=1, help="1-based index into the point group"
    )
    _common_flags(comp)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=SUITE_NAMES)
    ver.add_argument("--degree", type=int, help="series truncation degree (at least 4)")
    ver.add_argument(
        "--max-weight",
        type=_nonneg,
        dest="max_weight",
        help="weight bound for the rank-two sweep",
    )
    ver.add_argument(
        "--family",
        choices=sorted(_FAMILY_BY_LETTER),
        help="narrow the lassalle suite to one family",
    )
    ver.add_argument("--r", type=_nonneg, help="narrow row-indexed suites to one row")
    ver.add_argument("--n", type=_nonneg, help="narrow row-indexed suites to one rank")
    _common_flags(ver)

    cache = sub.add_parser("cache", help="inspect or manage the oracle cache")
    cache.add_argument("action", choices=("path", "clear", "warm"))
    _common_flags(cache)
    return parser


def _load_config(args) -> RunConfig:
    cfg = default_config()
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read configuration: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"configuration is not valid JSON: {exc}")
        try:
            cfg = RunConfig.from_json_obj(obj, base=cfg)
        except (KeyError, TypeError, ValueError, QbcError) as exc:
            raise UsageError(f"bad configuration: {exc}")
    overrides = {}
    if getattr(args, "degree", None) is not None:
        overrides["degree"] = args.degree
    if getattr(args, "max_weight", None) is not None:
        overrides["max_weight"] = args.max_weight
    if overrides:
        try:
            cfg = replace(cfg, **overrides)
        except ValueError as exc:
            raise UsageError(str(exc))
    return cfg


def _resolve_cache(args, cfg: RunConfig) -> None:
    # flag beats environment beats configuration file
    if args.cache_dir:
        os.environ[CACHE_ENV] = args.cache_dir
    elif not os.environ.get(CACHE_ENV) and cfg.cache_dir:
        os.environ[CACHE_ENV] = cfg.cache_dir


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}")
    else:
        print(text)


def _pick_point(cfg: RunConfig, group: str, index: int):
    try:
        pts = cfg.points(group)
    except ValueError as exc:
        raise UsageError(str(exc))
    if not 1 <= index <= len(pts):
        raise UsageError(
            f"--point must be between 1 and {len(pts)} for group {group!r}"
        )
    return pts[index - 1]


def _required(value, flag: str, target: str):
    if value is None:
        raise UsageError(f"compute {target} requires {flag}")
    return value


def _rank(args) -> int:
    n = args.n if args.n is not None else 2
    if n < 1:
        raise UsageError("--n must be at least 1 here")
    return n


def _cmd_compute(args, cfg: RunConfig) -> int:
    target = args.target
    if target in ("aw", "fourfold"):
        cp = _pick_point(cfg, "askey-wilson", args.point)
        n = _required(args.n, "--n", target)
        poly = (aw_poly if target == "aw" else fourfold_poly)(n, cp.point)
        degrees = {"weight": n}
    elif target in ("koornwinder", "g-series"):
        cp = _pick_point(cfg, "koornwinder", args.point)
        r = _required(args.r, "--r", target)
        n = _rank(args)
        if target == "koornwinder":
            poly = koorn_oracle((r,), cp.point, n).expand()
        else:
            poly = g_series(r, n, cp.point).expand()
        degrees = {"row": r, "rank": n}
    elif target.startswith("macdonald-"):
        cp = _pick_point(cfg, "macdonald", args.point)
        r = _required(args.r, "--r", target)
        n = _rank(args)
        tag = family_tag(_FAMILY_BY_LETTER[target[-1]], cp)
        poly = mac_row(tag, r, cp.point, n).expand()
        degrees = {"family": tag.family, "row": r, "rank": n}
    else:
        cp = _pick_point(cfg, "b2", args.point)
        r1 = _required(args.r1, "--r1", target)
        r2 = _required(args.r2, "--r2", target)
        poly = f_b2_poly(B2Weight(r1, r2), cp.point)
        degrees = {"weight": [r1, r2]}
    if args.json:
        doc = {
            "schema": 1,
            "target": target,
            "degrees": degrees,
            "point": cp.to_json_obj(),
            "polynomial": poly.to_json_obj(),
        }
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = poly.format_human()
    _emit(text, args.out)
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    families = (_FAMILY_BY_LETTER[args.family],) if args.family else None
    rows = (args.r,) if args.r is not None else None
    ranks = (_rank(args),) if args.n is not None else None
    try:
        report = run_suite(args.suite, cfg, families=families, ranks=ranks, rows=rows)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.json:
        text = report.to_json()
    else:
        text = "\n".join(report.summary_lines())
    _emit(text, args.out)
    return 0 if report.passed else 1


def _cmd_cache(args, cfg: RunConfig) -> int:
    root = cache_root()
    doc = {"schema": 1, "cache_dir": str(root)}
    text = str(root)
    if args.action == "clear":
        doc["cleared"] = clear_cache()
        text = f"cleared {root}"
    elif args.action == "warm":
        count = 0
        for _, cp, n, r in koornwinder_rows(cfg):
            koorn_oracle((r,), cp.point, n)
            count += 1
        for _, _, _, Q, n, r in lassalle_rows(cfg):
            koorn_oracle((r,), Q, n)
            count += 1
        doc["warmed"] = count
        text = f"warmed {count} oracle entries under {root}"
    _emit(json.dumps(doc, sort_keys=True) if args.json else text, args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cfg = _load_config(args)
        _resolve_cache(args, cfg)
        if args.command == "compute":
            return _cmd_compute(args, cfg)
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        return _cmd_cache(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 2
    except QbcError as exc:
        print(f"exact computation aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
