"""Command-line front end: CRLB evaluation, radius-scale optimization,
and Monte-Carlo simulation driven by a JSON configuration document.

A run is defined by one nested config (defaults below), optionally read
from --config, then overridden by repeated --set dotted.path=value and
by the dedicated flags (--seed, --workers).  Every output CSV embeds the
tool version and the fully resolved config as '#' comment lines, so a
result file is a complete experiment record; --workers is left out, as
it moves no result byte.

Exit codes: 0 success, 2 configuration or validation failure (an
arithmetic overflow or division by zero on extreme values included), 3
singular or degenerate geometry, 4 optimizer non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys

from . import __version__
from .deployment import (
    OptimizerConfig,
    grid_search_k,
    k_objective,
    optimize_k,
)
from .errors import AuvgeomError, NonPositiveK, TooFewAnchors, UnsupportedCount
from .fisher import NoiseModel, diagonal_lower_bound, fim
from .geometry import Position, SoundSpeedProfile
from .harness import (
    Axis,
    Cube,
    FIGURE_SPECS,
    FixedAnchors,
    Random,
    ResultTable,
    RmUsc,
    RsUsc,
    Scenario,
    Static,
    SweepSpec,
    Usc,
    _fixed_layout,
    _scheme_label,
    _write_text,
    emit_plot,
    export_csv,
    fig3_spec,
    run_scenario,
    sweep,
)

DEFAULT_CONFIG = {
    "auv": [50.0, 50.0, 50.0],
    "ssp": {"surface_speed_b": 1480.0, "steepness_a": 0.1},
    "noise": {
        "kind": "distance_dependent",
        "sigma_ms": 1.0,
        "ke_db": -10.0,
        "beta": 2.0,
        "l0": 1000.0,
        "l_f_db_per_km": 1.0,
    },
    "deployment": {
        "kind": "usc",
        "n": 8,
        "scale_k": None,
        "side": None,
        "center": None,
        "box": None,
        "seed": None,
        "anchors": None,
    },
    "movement": {"kind": "static", "delta_meters": 0.0, "seed": 0},
    "optimizer": {
        "initial_k": 1.0,
        "step_size_t": 0.1,
        "precision_eps": 1e-6,
        "max_iterations_Nmax": 200,
        "fd_step_h": 1e-5,
    },
    "sweep": {"axis": None, "values": None},
    "trials": 2000,
    "master_seed": 0,
    "workers": 1,
}


class ConfigError(ValueError):
    pass


def _merge(base: dict, override: dict, assigned: set, path: str = "") -> None:
    """Recursive in-place merge, adding each leaf it sets to ``assigned`` as a
    dotted key; keys absent from the defaults are typos."""
    for key, value in override.items():
        where = f"{path}{key}"
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} expects an object")
            _merge(base[key], value, assigned, where + ".")
        else:
            base[key] = value
            assigned.add(where)


def _apply_set(cfg: dict, assigned: set, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs dotted.path=value, got {assignment!r}")
    dotted, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = value
    for part in reversed(dotted.split(".")):
        node = {part: node}
    _merge(cfg, node, assigned)


def _resolve_config(args: argparse.Namespace) -> tuple[dict, set]:
    # the config and the leaves the arguments set; two dict levels: _merge rebinds leaves and nothing edits a leaf list in place
    cfg = {key: dict(v) if isinstance(v, dict) else v for key, v in DEFAULT_CONFIG.items()}
    assigned: set = set()
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as f:
                document = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config file {args.config!r}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {args.config!r} is not valid JSON: {e}") from e
        if not isinstance(document, dict):
            raise ConfigError(f"config file {args.config!r} must hold a JSON object")
        _merge(cfg, document, assigned)
    for assignment in args.set or ():
        _apply_set(cfg, assigned, assignment)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
        assigned.add("master_seed")
    if args.workers is not None:
        cfg["workers"] = args.workers
        assigned.add("workers")
    return cfg, assigned


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_list_of(check, v, length=None) -> bool:
    return isinstance(v, list) and length in (None, len(v)) and all(map(check, v))


def _is_point(v) -> bool:
    return _is_list_of(_is_number, v, 3)


# what each leaf must hold, by the type of its default
_LEAF_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (_is_point, "an [x, y, z] list of finite numbers"),
}
# leaves whose default is null: null, or this
_NULLABLE = {
    "deployment.scale_k": _LEAF_TYPES[float],
    "deployment.side": _LEAF_TYPES[float],
    "deployment.center": _LEAF_TYPES[list],
    "deployment.box": (
        lambda v: _is_list_of(lambda pair: _is_list_of(_is_number, pair, 2), v, 3),
        "three [low, high] lists of finite numbers",
    ),
    "deployment.seed": _LEAF_TYPES[int],
    "deployment.anchors": (lambda v: _is_list_of(_is_point, v), "a list of [x, y, z] points"),
    "sweep.axis": _LEAF_TYPES[str],
    "sweep.values": (lambda v: _is_list_of(_is_number, v), "a list of finite numbers"),
}


def _ordered_box(box) -> bool:
    (x0, x1), (y0, y1), (z0, z1) = box
    return x0 <= x1 and y0 <= y1 and 0 <= z0 <= z1


# the value range of each leaf that has one, checked once the types are
# right, so that a bad value is reported under its own key
_RANGES = (
    ("auv", lambda v: v[2] > 0, "must have z > 0 (the AUV below the surface)"),
    ("ssp.surface_speed_b", lambda v: v > 0, "must be positive"),
    ("ssp.steepness_a", lambda v: v > 0, "must be positive"),
    ("noise.sigma_ms", lambda v: v > 0, "must be positive"),
    ("noise.beta", lambda v: 1 <= v <= 2, "must lie in [1, 2]"),
    ("noise.l0", lambda v: v > 0, "must be positive"),
    ("deployment.scale_k", lambda v: v is None or v > 0, "must be positive"),
    ("deployment.side", lambda v: v is None or v > 0, "must be positive"),
    ("deployment.box", lambda v: v is None or _ordered_box(v),
     "must have ordered bounds and depths >= 0"),
    ("movement.delta_meters", lambda v: v >= 0, "must be >= 0"),
    ("trials", lambda v: v >= 1, "must be >= 1"),
    ("master_seed", lambda v: v >= 0, "must be >= 0"),
    ("workers", lambda v: v >= 1, "must be >= 1"),
)


def _leaf_defaults(defaults: dict = DEFAULT_CONFIG, path: str = ""):
    """(dotted key, default) of every leaf, in DEFAULT_CONFIG order."""
    for key, default in defaults.items():
        where = f"{path}{key}"
        if isinstance(default, dict):
            yield from _leaf_defaults(default, where + ".")
        else:
            yield where, default


_LEAF_DEFAULTS = dict(_leaf_defaults())


def _leaf(cfg: dict, key: str):
    return functools.reduce(dict.__getitem__, key.split("."), cfg)


def _check_leaves(cfg: dict, assigned: set) -> None:
    """Reject an assigned leaf of the wrong type or out of its range, naming the key.

    The other leaves hold valid defaults.  Types go before ranges, each in
    DEFAULT_CONFIG order, so the first bad leaf is the one a full walk finds.
    """
    values = {key: _leaf(cfg, key) for key in _LEAF_DEFAULTS if key in assigned}
    for key, value in values.items():
        default = _LEAF_DEFAULTS[key]
        ok, expected = _NULLABLE[key] if default is None else _LEAF_TYPES[type(default)]
        if not ((default is None and value is None) or ok(value)):
            raise ConfigError(f"config key {key!r} expects {expected}, got {value!r}")
    for key, ok, rule in _RANGES:
        if key in values and not ok(values[key]):
            raise ConfigError(f"config key {key!r} {rule}, got {values[key]!r}")


def _build_noise(cfg: dict) -> NoiseModel:
    section = cfg["noise"]
    if section["kind"] == "constant_variance":
        return NoiseModel.constant_variance(section["sigma_ms"] * 1e-3)
    if section["kind"] == "distance_dependent":
        return NoiseModel.distance_dependent(
            ke_db=section["ke_db"],
            beta=section["beta"],
            l0=section["l0"],
            l_f_db_per_km=section["l_f_db_per_km"],
        )
    raise ConfigError(f"unknown noise kind {section['kind']!r}")


def _build_deployment(cfg: dict):
    section = cfg["deployment"]
    kind = section["kind"]
    if kind == "usc":
        return Usc(scale_k=section["scale_k"], n=section["n"])
    if kind == "cube":
        center = section["center"]
        return Cube(
            side=section["side"],
            center=None if center is None else Position(*center),
            n=section["n"],
        )
    if kind == "random":
        box = section["box"]
        return Random(
            box=None if box is None else tuple(tuple(pair) for pair in box),
            seed=section["seed"],
            n=section["n"],
        )
    if kind == "fixed":
        anchors = section["anchors"]
        if not anchors:
            raise ConfigError("fixed deployment needs deployment.anchors")
        return FixedAnchors(tuple(Position(*p) for p in anchors))
    raise ConfigError(f"unknown deployment kind {kind!r}")


def _build_movement(cfg: dict):
    section = cfg["movement"]
    kind = section["kind"]
    if kind == "static":
        return Static()
    if kind == "rm-usc":
        return RmUsc(delta_meters=section["delta_meters"], seed=section["seed"])
    if kind == "rs-usc":
        return RsUsc(delta_meters=section["delta_meters"], seed=section["seed"])
    raise ConfigError(f"unknown movement kind {kind!r}")


def _build_scenario(cfg: dict) -> Scenario:
    return Scenario(
        auv_truth=Position(*cfg["auv"]),
        deployment=_build_deployment(cfg),
        ssp=SoundSpeedProfile(**cfg["ssp"]),
        noise=_build_noise(cfg),
        trials=cfg["trials"],
        master_seed=cfg["master_seed"],
        movement=_build_movement(cfg),
    )


def _metadata(cfg: dict) -> tuple[str, ...]:
    # the worker count moves no result byte, so the record leaves it out
    record = {k: v for k, v in cfg.items() if k != "workers"}
    resolved = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return (f"auvgeom {__version__}", f"config {resolved}")


# config leaves a --figure preset may read; it gets those its function's signature names
_FIGURE_KEYS = ("master_seed", "trials", "workers")


def _out_dir(args: argparse.Namespace) -> str | None:
    return args.out if args.out is not None else os.environ.get("AUVGEOM_OUT")


def cmd_crlb(args: argparse.Namespace, cfg: dict) -> int:
    scenario = _build_scenario(cfg)
    anchors, _ = _fixed_layout(scenario)
    if anchors is None:
        raise ConfigError("crlb needs a deterministic layout: give the random deployment a seed")
    result = fim(scenario.auv_truth, anchors, scenario.ssp, scenario.noise)
    metrics = {
        "trace_crlb_m2": result.trace_crlb,
        "diagonal_lower_bound_m2": diagonal_lower_bound(result),
        "offdiag_residual": result.offdiag_residual,
        "condition_number": result.condition_number,
    }
    print("\n".join(f"{name} {value!r}" for name, value in metrics.items()))
    out = _out_dir(args)
    if out is not None:
        path = os.path.join(out, "crlb.csv")
        lines = [f"# {c}" for c in _metadata(cfg)] + ["metric,value"]
        lines += [f"{name},{value!r}" for name, value in metrics.items()]
        _write_text(path, "\n".join(lines) + "\n", "CSV")
        print(f"wrote {path}")
    return 0


def cmd_optimize_k(args: argparse.Namespace, cfg: dict) -> int:
    scenario = _build_scenario(cfg)
    if not isinstance(scenario.deployment, Usc):
        raise ConfigError("optimize-k applies to the usc deployment")
    z = scenario.auv_truth.z
    n = scenario.deployment.n
    opt_cfg = OptimizerConfig(**cfg["optimizer"])
    result = optimize_k(z, n, scenario.ssp, scenario.noise, opt_cfg)
    print(f"k_star {result.k_star!r}")
    print(f"objective_m2 {result.objective!r}")
    print(f"iterations {result.iterations}")
    if args.grid:
        k_grid = grid_search_k(z, n, scenario.ssp, scenario.noise)
        print(f"grid_k_star {k_grid!r}")
        print(f"grid_objective_m2 {k_objective(k_grid, z, n, scenario.ssp, scenario.noise)!r}")
        print(f"grid_agreement {abs(result.k_star - k_grid)!r}")
    if not result.converged:
        print("optimizer did not converge within the iteration budget", file=sys.stderr)
        return 4
    out = _out_dir(args)
    if out is not None:
        # radius-scale rows read the AUV, profile, noise model, n and seed alone
        spec = SweepSpec(axis=Axis.SCALE_K, values=fig3_spec().values, schemes={"usc": scenario})
        table = sweep(spec)
        path = os.path.join(out, "ksweep.csv")
        export_csv(table, path, comments=_metadata(cfg))
        print(f"wrote {path}")
        if args.plot:
            svg_path = os.path.join(out, "ksweep.svg")
            emit_plot(table, svg_path)
            print(f"wrote {svg_path}")
    return 0


def cmd_simulate(args: argparse.Namespace, cfg: dict) -> int:
    out = _out_dir(args) or "."
    comments = _metadata(cfg)
    if args.figure is not None:
        changed = (k for k, d in _LEAF_DEFAULTS.items() if _leaf(cfg, k) != d)
        ignored = next((k for k in changed if k not in _FIGURE_KEYS), None)
        if ignored is not None:
            raise ConfigError(
                f"--figure {args.figure} fixes its own scenario; config key {ignored!r} "
                "would be ignored (only master_seed, trials and workers apply)"
            )
        maker = FIGURE_SPECS[args.figure]
        applied = {k: cfg[k] for k in inspect.signature(maker).parameters}
        comments = _metadata({"figure": args.figure, **applied})
        spec = maker(**applied)
        stem = f"fig{args.figure}"
        table = sweep(spec, workers=cfg["workers"])
    else:
        scenario = _build_scenario(cfg)
        axis = cfg["sweep"]["axis"]
        stem = "simulate"
        if axis is not None:
            values = cfg["sweep"]["values"]
            if not values:
                raise ConfigError("sweep.values must list the axis points")
            label = _scheme_label(scenario.deployment, scenario.movement)
            spec = SweepSpec(
                axis=Axis(axis), values=tuple(float(v) for v in values), schemes={label: scenario}
            )
            table = sweep(spec, workers=cfg["workers"])
        else:
            table = ResultTable(rows=(run_scenario(scenario),))
    path = os.path.join(out, f"{stem}.csv")
    export_csv(table, path, comments=comments)
    print(f"wrote {path}")
    if args.plot:
        svg_path = os.path.join(out, f"{stem}.svg")
        emit_plot(table, svg_path)
        print(f"wrote {svg_path}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call and reused: parse_args leaves the parser as it was
    parser = argparse.ArgumentParser(
        prog="auvgeom",
        description="CRLB evaluation, radius-scale optimization, and Monte-Carlo "
        "simulation for circle-of-anchors deployments.",
    )
    parser.add_argument("--version", action="version", version=f"auvgeom {__version__}")
    parser.add_argument("--config", metavar="PATH", help="JSON configuration document")
    parser.add_argument("--seed", type=int, metavar="INT", help="override master_seed")
    parser.add_argument("--workers", type=int, metavar="INT", help="parallel sweep workers")
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="output directory (default: $AUVGEOM_OUT, else current directory)",
    )
    parser.add_argument("--plot", action="store_true", help="also write an SVG chart")
    parser.add_argument(
        "--figure",
        choices=sorted(FIGURE_SPECS),
        help="run a preset experiment instead of the configured scenario",
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override one config entry, e.g. --set noise.sigma_ms=5",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("crlb", help="print the bound for the configured layout")
    p_opt = sub.add_parser("optimize-k", help="optimize the circle radius scale")
    p_opt.add_argument("--grid", action="store_true", help="cross-check against a grid search")
    sub.add_parser("simulate", help="run the Monte-Carlo scenario or sweep")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.figure is not None and args.command != "simulate":
        print("--figure applies to the simulate command", file=sys.stderr)
        return 2
    try:
        cfg, assigned = _resolve_config(args)
        _check_leaves(cfg, assigned)
        if args.command == "crlb":
            return cmd_crlb(args, cfg)
        if args.command == "optimize-k":
            return cmd_optimize_k(args, cfg)
        return cmd_simulate(args, cfg)
    except (ConfigError, ValueError, TooFewAnchors, UnsupportedCount) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        # overflow or division by zero on extreme but finite config values
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except NonPositiveK as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except AuvgeomError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
