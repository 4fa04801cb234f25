"""Monte-Carlo scenarios, parameter sweeps, and result export.

A Scenario bundles one simulated world: the true AUV position, an
anchor deployment rule, the sound profile, the noise model, a movement
model, and a trial budget under a master seed.  Sweeps vary one axis
over a list of values for one or more named schemes and produce a flat
result table that exports to CSV and SVG.

Reproducibility contract 5: a cell (one scheme at one axis value) runs
whole in one task and draws its movement, deployment and noise streams,
children of SeedSequence([master_seed, movement_seed]), once each as a
block with a row per trial.  Results are byte-identical for any worker
count without per-trial generators, and trial t of every scheme sees the
same deviates.  A task is one cell, or a group of cells that share a
sound-speed profile and noise model and whose trials go through one
estimator call whatever their anchor counts (see ``_task_groups``); the
Gauss-Newton trajectories of different trials are independent, so
grouping moves no byte.  Contracts 2 to 5 draw the same streams; rows
moved at 3 (Newton-decrement stop) and 4 (1e-9, rational ray kernel); at
5 only cells whose step hit the span bound move.  Contract 1 seeded each
trial alone.  Rows from Monte-Carlo runs report the depth-augmented CRLB
trace averaged over the per-trial geometry, matching what the estimator
(which also uses the depth sensor) can attain; the cond > 1e12 rule of
``fim`` and the estimator leaves a geometry out (NaN if none is left),
and a static AUV with one shared layout is one geometry.  Radius-scale
sweep rows skip the Monte-Carlo part and carry the closed-form
timing-only trace.

Row is the CSV schema: the header, each row line and load_csv's parse
follow its fields in order, bar the note, which a failed cell carries in
a '# note:' line above its row.  One helper writes every result file.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import _svg
from .deployment import (
    _usc_circles,
    cube_positions,
    default_box_for,
    default_cube_for,
    k_objective,
    optimize_k,
    random_layouts,
    random_positions,
    usc_positions,
)
from .errors import AuvgeomError, EmptyTable, NoConvergedTrials
from .estimation import DEPTH_NOISE_VAR, EstimatorConfig, estimate_trials
from .fisher import NoiseModel, _condition_screen, _information, _time_and_rows, _variance_at, fim
from .geometry import Position, SoundSpeedProfile

DIVERGENCE_FLAG_FRACTION = 0.05


# ---------------------------------------------------------------------------
# deployment and movement descriptors


@dataclass(frozen=True)
class Usc:
    """Surface circle of n anchors at radius scale_k times the AUV depth.

    scale_k None means: optimize the scale for the scenario's depth and
    noise model when the scenario runs.
    """

    scale_k: float | None = None
    n: int = 8


@dataclass(frozen=True)
class Cube:
    """Cube baseline; side and center default to the depth-derived rule."""

    side: float | None = None
    center: Position | None = None
    n: int = 8


@dataclass(frozen=True)
class Random:
    """Uniform draws from a box; seed None redraws each trial."""

    box: tuple[tuple[float, float], ...] | None = None
    seed: int | None = None
    n: int = 8


@dataclass(frozen=True)
class FixedAnchors:
    """A literal anchor list, for pre-built comparison layouts."""

    anchors: tuple[Position, ...]

    def __post_init__(self) -> None:
        if len(self.anchors) < 4:
            raise ValueError("need at least 4 anchors")


@dataclass(frozen=True)
class Static:
    pass


@dataclass(frozen=True)
class RmUsc:
    """AUV drifts by delta_meters in a random direction; anchors stay
    where the initial position put them."""

    delta_meters: float
    seed: int = 0


@dataclass(frozen=True)
class RsUsc:
    """Same drift as RmUsc, but the circle is rebuilt around the moved
    AUV every trial."""

    delta_meters: float
    seed: int = 0


Deployment = Usc | Cube | Random | FixedAnchors
Movement = Static | RmUsc | RsUsc


@dataclass(frozen=True)
class Scenario:
    auv_truth: Position
    deployment: Deployment
    ssp: SoundSpeedProfile
    noise: NoiseModel
    trials: int
    master_seed: int
    movement: Movement = field(default_factory=Static)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if isinstance(self.movement, (RmUsc, RsUsc)):
            if self.movement.delta_meters < 0:
                raise ValueError("delta_meters must be >= 0")
            if not isinstance(self.deployment, Usc):
                raise ValueError("movement models are defined for Usc deployments")


class Axis(str, Enum):
    ANCHOR_COUNT = "anchor_count"
    SIGMA_MS = "sigma_ms"
    STEEPNESS_A = "steepness_a"
    DELTA_METERS = "delta_meters"
    SCALE_K = "scale_k"


@dataclass(frozen=True)
class Variant:
    """Per-scheme overrides applied to the base scenario."""

    deployment: Deployment | None = None
    movement: Movement | None = None


@dataclass(frozen=True)
class SweepSpec:
    axis: Axis
    values: tuple[float, ...]
    base: Scenario
    schemes: dict[str, Variant] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("sweep needs at least one axis value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("axis values must be strictly increasing")


# one sweep cell: (scheme, variant, axis value)
_SweepCell = tuple[str, Variant, float]


@dataclass(frozen=True)
class Row:
    axis_name: str
    axis_value: float
    scheme: str
    n_anchors: int
    k: float
    rmse_m: float
    trace_crlb_m2: float
    diverged: int
    trials: int
    seed: int
    note: str = ""


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[Row, ...]


# the CSV columns, each with the type that parses it (annotations are strings here)
_TYPES = {"str": str, "int": int, "float": float}
_COLUMNS = tuple((f.name, _TYPES[f.type]) for f in fields(Row) if f.name != "note")
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)
CSV_CONTRACT = "# contract 5"  # contract the rows were drawn under; files without it are 1
_NOTE = "# note: "  # prefix of the line that carries a row's note


# ---------------------------------------------------------------------------
# scenario execution


def _resolve_k(dep: Usc, s: Scenario) -> float:
    if dep.scale_k is not None:
        return dep.scale_k
    return optimize_k(s.auv_truth.z, dep.n, s.ssp, s.noise).k_star


def _fixed_layout(s: Scenario) -> tuple[list[Position] | None, float, int]:
    """Anchors shared by all trials, or None when redrawn per trial.

    Returns (anchors, k_used, n_anchors).
    """
    dep = s.deployment
    if isinstance(dep, Usc):
        k = _resolve_k(dep, s)
        return usc_positions(s.auv_truth, dep.n, k), k, dep.n
    if isinstance(dep, Cube):
        d_center, d_side = default_cube_for(s.auv_truth)
        side = dep.side if dep.side is not None else d_side
        center = dep.center if dep.center is not None else d_center
        return cube_positions(center, side, dep.n), float("nan"), dep.n
    if isinstance(dep, Random):
        box = dep.box if dep.box is not None else default_box_for(s.auv_truth)
        if dep.seed is None:
            return None, float("nan"), dep.n
        return random_positions(box, dep.n, dep.seed), float("nan"), dep.n
    return list(dep.anchors), float("nan"), len(dep.anchors)


def _augmented_trace(rows: np.ndarray, sigma2: np.ndarray) -> float:
    """Mean over geometries of tr((F_tof + depth info)^-1).

    rows and sigma2 are the Jacobian rows (G, N, 3) and timing variances
    (G, N) at the G distinct true geometries, one per trial or one in all.
    A matrix that is not finite or has cond > 1e12 (``_condition_screen``)
    has no bound and is left out; a cell with none left reads NaN.
    """
    with np.errstate(all="ignore"):
        f = _information(rows, sigma2, DEPTH_NOISE_VAR)
        f = f[~_condition_screen(f)[0]]
        traces = np.trace(np.linalg.inv(f), axis1=1, axis2=2)
        return float(traces.mean()) if len(traces) else math.nan


_MOVE_STREAM, _DEPLOY_STREAM, _NOISE_STREAM = range(3)


def _cell_rng(s: Scenario, stream: int) -> np.random.Generator:
    # the same generator as SeedSequence(...).spawn(3)[stream]
    seed = [s.master_seed, getattr(s.movement, "seed", 0)]
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _measurements(
    truth: np.ndarray,
    anchor_stack: np.ndarray,
    ssp: SoundSpeedProfile,
    noise: NoiseModel,
    dev: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Noisy travel times and depth readings from standard-normal deviates.

    truth is (trials, 3) or (1, 3), anchor_stack (N, 3) or (trials, N, 3),
    and dev (trials, N + 1), with the depth deviate in the last column.
    Returns (rtt, depth, rows, sigma2): the measurements, then the Jacobian
    rows and variances at each distinct true geometry, which the bound reuses.
    """
    n = anchor_stack.shape[-2]
    t_true, rows, r = _time_and_rows(truth, anchor_stack, ssp)
    with np.errstate(over="ignore"):
        sigma2 = _variance_at(noise, r)
    rtt = t_true + dev[:, :n] * np.sqrt(sigma2)
    depth = truth[:, 2] + dev[:, n] * math.sqrt(DEPTH_NOISE_VAR)
    return rtt, depth, rows, sigma2


class _Cell(NamedTuple):
    """What a cell's row needs besides its estimates: the true positions,
    (trials, 3) or one (1, 3) row, and the bound averaged over them."""

    truth: np.ndarray
    trace: float
    k_used: float
    n: int


# a cell's (rmse, trace, diverged, k_used, n), or the error it failed with
_CellResult = tuple[float, float, int, float, int] | AuvgeomError


def _draw_cell(s: Scenario) -> tuple[_Cell, np.ndarray, np.ndarray, np.ndarray]:
    """A cell's trials up to estimation, each stream drawn once as a block.

    The blocks are the unit movement directions, the random layouts, then
    the timing deviates with the depth deviate in the last column.  Travel
    times, noise levels and the bound's rows come from one batched kernel
    call; the bound is taken here, so the rows are freed before any
    estimation; a static AUV is one (1, 3) truth row.  Returns the cell
    and its estimator inputs: the anchor stack, the travel times and the
    depth readings.
    """
    anchors0, k_used, n = _fixed_layout(s)
    move = s.movement
    truth = s.auv_truth.as_array()[None]
    if isinstance(move, (RmUsc, RsUsc)):
        v = _cell_rng(s, _MOVE_STREAM).standard_normal((s.trials, 3))
        truth = truth + move.delta_meters * (v / np.linalg.norm(v, axis=1, keepdims=True))
        truth[:, 2] = np.maximum(truth[:, 2], 1.0)
    if anchors0 is None:
        box = s.deployment.box if s.deployment.box is not None else default_box_for(s.auv_truth)
        anchor_stack = random_layouts(box, n, _cell_rng(s, _DEPLOY_STREAM), s.trials)
    else:
        # fail fast on layouts that cannot localize at all
        fim(s.auv_truth, anchors0, s.ssp, s.noise)
        if isinstance(move, RsUsc):
            anchor_stack = _usc_circles(truth, n, k_used)
        else:
            # one (N, 3) layout that every trial shares
            anchor_stack = np.array([p.as_array() for p in anchors0])

    dev = _cell_rng(s, _NOISE_STREAM).standard_normal((s.trials, n + 1))
    rtt, depth_meas, rows, sigma2 = _measurements(truth, anchor_stack, s.ssp, s.noise, dev)
    return _Cell(truth, _augmented_trace(rows, sigma2), k_used, n), anchor_stack, rtt, depth_meas


def _run_mc(cells: list[Scenario]) -> list[_CellResult]:
    """One Monte-Carlo execution of a group of cells, in one estimator call.

    The cells share their sound-speed profile and noise model; their
    anchor counts may differ.  Each draws its trials and takes its bound
    on its own (``_draw_cell``); their trials then go through one
    ``estimate_trials`` call as one block per cell, in row order; the
    estimator orders the blocks by anchor count itself and iterates at
    most the largest cell's worth of trials at a time.  Returns one
    result per cell, in order.
    """
    out: list[_CellResult | _Cell] = []
    inputs = {}
    for i, s in enumerate(cells):
        try:
            cell, *inputs[i] = _draw_cell(s)
        except AuvgeomError as e:
            out.append(e)
            continue
        out.append(cell)
    if not inputs:
        return out
    stacks, rtts, depths = (list(x) for x in zip(*inputs.values()))
    q_hat, _, converged, _ = estimate_trials(
        rtts, depths, stacks, cells[0].ssp, cells[0].noise, EstimatorConfig()
    )
    end = 0
    for i in inputs:
        cell, trials = out[i], cells[i].trials
        start, end = end, end + trials
        conv = converged[start:end]
        if not conv.any():
            out[i] = NoConvergedTrials(f"all {trials} trials failed to converge")
            continue
        err2 = np.sum((q_hat[start:end] - cell.truth)[conv] ** 2, axis=1)
        rmse_val = float(np.sqrt(err2.mean()))
        out[i] = (rmse_val, cell.trace, int((~conv).sum()), cell.k_used, cell.n)
    return out


def _anchor_count(s: Scenario) -> int:
    dep = s.deployment
    return len(dep.anchors) if isinstance(dep, FixedAnchors) else dep.n


def _draws_layouts(s: Scenario) -> bool:
    # whether the cell draws a layout per trial rather than sharing one
    dep = s.deployment
    return isinstance(s.movement, RsUsc) or (isinstance(dep, Random) and dep.seed is None)


def _blank_row(s: Scenario, axis_name: str, axis_value: float, scheme: str) -> Row:
    # a row before any result: NaN estimates, nothing diverged
    return Row(
        axis_name=axis_name,
        axis_value=axis_value,
        scheme=scheme,
        n_anchors=_anchor_count(s),
        k=float("nan"),
        rmse_m=float("nan"),
        trace_crlb_m2=float("nan"),
        diverged=0,
        trials=s.trials,
        seed=s.master_seed,
    )


def _mc_row(row: Row, result: _CellResult) -> Row:
    if isinstance(result, AuvgeomError):
        # every trial of a cell that converged on none diverged; other errors ran none
        diverged = row.trials if isinstance(result, NoConvergedTrials) else 0
        return replace(row, diverged=diverged, note=f"{type(result).__name__}: {result}")
    rmse_val, trace, diverged, k_used, n = result
    return replace(
        row, n_anchors=n, k=k_used, rmse_m=rmse_val, trace_crlb_m2=trace, diverged=diverged
    )


def run_scenario(s: Scenario, axis_name: str = "single", axis_value: float = 0.0) -> Row:
    """Execute one scenario and summarize it as a table row."""
    [result] = _run_mc([s])
    if isinstance(result, AuvgeomError):
        raise result
    scheme = _scheme_label(s.deployment, s.movement)
    return _mc_row(_blank_row(s, axis_name, axis_value, scheme), result)


def _scheme_label(dep: Deployment, move: Movement) -> str:
    if isinstance(move, RmUsc):
        return "rm-usc"
    if isinstance(move, RsUsc):
        return "rs-usc"
    return {
        Usc: "usc",
        Cube: "cube",
        Random: "random",
        FixedAnchors: "fixed",
    }[type(dep)]


def _apply_axis(s: Scenario, axis: Axis, value: float) -> Scenario:
    if axis is Axis.ANCHOR_COUNT:
        if isinstance(s.deployment, FixedAnchors):
            raise ValueError("anchor-count sweeps need a generated deployment")
        if not float(value).is_integer():
            raise ValueError(f"anchor count must be a whole number, got {value!r}")
        return replace(s, deployment=replace(s.deployment, n=int(value)))
    if axis is Axis.SIGMA_MS:
        if s.noise.kind != "constant_variance":
            raise ValueError("sigma sweeps need the constant-variance noise model")
        return replace(s, noise=replace(s.noise, sigma=value * 1e-3))
    if axis is Axis.STEEPNESS_A:
        return replace(s, ssp=replace(s.ssp, steepness_a=value))
    if axis is Axis.DELTA_METERS:
        if not isinstance(s.movement, (RmUsc, RsUsc)):
            raise ValueError("delta sweeps need a movement model")
        return replace(s, movement=replace(s.movement, delta_meters=value))
    if not isinstance(s.deployment, Usc):
        raise ValueError("radius-scale sweeps need a Usc deployment")
    return replace(s, deployment=replace(s.deployment, scale_k=value))


def _cell_scenario(spec: SweepSpec, variant: Variant, value: float) -> Scenario:
    s = spec.base
    if variant.deployment is not None:
        s = replace(s, deployment=variant.deployment)
    if variant.movement is not None:
        s = replace(s, movement=variant.movement)
    return _apply_axis(s, spec.axis, value)


def _sweep_one(spec: SweepSpec, cells: list[_SweepCell]) -> list[Row]:
    """The rows of one task: a group of (scheme, variant, axis value) cells.

    A failed cell becomes an annotated row; the others keep theirs.
    """
    scenarios = [_cell_scenario(spec, variant, value) for _, variant, value in cells]
    rows = [
        _blank_row(s, spec.axis.value, value, scheme)
        for s, (scheme, _, value) in zip(scenarios, cells)
    ]
    if spec.axis is Axis.SCALE_K:
        # analytic rows: no Monte-Carlo, timing-only closed form
        out = []
        for row, s in zip(rows, scenarios):
            with np.errstate(over="ignore"):
                trace = k_objective(row.axis_value, s.auv_truth.z, s.deployment.n, s.ssp, s.noise)
            out.append(replace(row, k=row.axis_value, trace_crlb_m2=trace, trials=0))
        return out
    return [_mc_row(row, result) for row, result in zip(rows, _run_mc(scenarios))]


def _sweep_cells(spec: SweepSpec) -> list[_SweepCell]:
    """Every (scheme, variant, axis value) cell, scheme-major: the row order."""
    schemes = spec.schemes or {_scheme_label(spec.base.deployment, spec.base.movement): Variant()}
    return [(scheme, variant, value) for scheme, variant in schemes.items() for value in spec.values]


def _task_groups(spec: SweepSpec, cells: list[_SweepCell]) -> list[list[int]]:
    """Indices into cells, one list per task, in the order of their first cell.

    Monte-Carlo cells that share a sound-speed profile and noise model
    form one task when any of them draws a layout per trial, whatever
    their anchor counts, so their iteration tails share one estimator
    loop.  Every other cell is a task of its own: merging ``fig5``'s
    fixed-layout cells by profile and noise model was about 10% slower,
    serial and on two workers.
    """
    if spec.axis is Axis.SCALE_K:
        return [[i] for i in range(len(cells))]
    scenarios = [_cell_scenario(spec, variant, value) for _, variant, value in cells]
    keys = [(s.ssp, s.noise) for s in scenarios]
    merged = {key for key, s in zip(keys, scenarios) if _draws_layouts(s)}
    groups: list[list[int]] = []
    by_key: dict = {}
    for i, key in enumerate(keys):
        if key not in merged:
            groups.append([i])
        elif key in by_key:
            by_key[key].append(i)
        else:
            groups.append(by_key.setdefault(key, [i]))
    return groups


def sweep(spec: SweepSpec, workers: int = 1) -> ResultTable:
    """Run every (scheme, axis value) cell of the sweep.

    Failed cells become annotated rows instead of aborting the table.
    Results are identical for any worker count: tasks (see _task_groups)
    are collected in a fixed order, and all randomness is seeded per cell.
    """
    cells = _sweep_cells(spec)
    groups = _task_groups(spec, cells)

    def task(group: list[int]) -> list[Row]:
        return _sweep_one(spec, [cells[i] for i in group])

    if workers <= 1:
        done = [task(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(task, groups))
    by_cell = {i: row for group, rows in zip(groups, done) for i, row in zip(group, rows)}
    return ResultTable(rows=tuple(by_cell[i] for i in range(len(cells))))


# ---------------------------------------------------------------------------
# export


def _csv_num(v: float) -> str:
    # repr() keeps the shortest digits that round-trip exactly
    return repr(float(v))


def _row_line(r: Row) -> str:
    return ",".join(
        _csv_num(getattr(r, name)) if kind is float else str(getattr(r, name))
        for name, kind in _COLUMNS
    )


def _cell(r: Row) -> str:
    # how a comment line names the row's cell
    return f"{r.scheme}@{_csv_num(r.axis_value)}"


def csv_text(table: ResultTable, comments: tuple[str, ...] = ()) -> str:
    """Render the table to CSV, with '#' metadata and divergence flags."""
    lines = [f"# {c}" for c in comments]
    lines += [CSV_CONTRACT, CSV_HEADER]
    for r in table.rows:
        if r.note:
            lines.append(f"{_NOTE}{_cell(r)} {r.note}")
        if r.trials > 0 and r.diverged > DIVERGENCE_FLAG_FRACTION * r.trials:
            lines.append(f"# WARNING: {_cell(r)} diverged on {r.diverged}/{r.trials} trials")
        lines.append(_row_line(r))
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    except OSError as e:
        raise OSError(f"cannot write {what} to {path!r}: {e}") from e


def export_csv(table: ResultTable, path: str, comments: tuple[str, ...] = ()) -> None:
    _write_text(path, csv_text(table, comments), "CSV")


def load_csv(path: str) -> ResultTable:
    """Parse export_csv output of any contract; a note line joins the row below it."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [(i, ln.rstrip("\n")) for i, ln in enumerate(f, 1) if ln.strip()]
    except OSError as e:
        raise OSError(f"cannot read CSV from {path!r}: {e}") from e
    it = iter(lines)
    # the first line that is not a comment is the header
    if next((ln for _, ln in it if not ln.startswith("#")), None) != CSV_HEADER:
        raise ValueError(f"{path!r} does not carry the expected header")
    rows, note = [], ""
    for i, ln in it:
        if ln.startswith(_NOTE):
            note = ln.removeprefix(_NOTE)
        if ln.startswith("#"):
            continue
        parts = ln.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"{path!r} line {i}: {len(parts)} fields, expected {len(_COLUMNS)}")
        try:
            row = Row(*(kind(part) for (_, kind), part in zip(_COLUMNS, parts)))
        except ValueError as e:
            raise ValueError(f"{path!r} line {i}: {e}") from None
        rows.append(replace(row, note=note.removeprefix(f"{_cell(row)} ")))
        note = ""
    return ResultTable(rows=tuple(rows))


_AXIS_LABEL = {
    Axis.ANCHOR_COUNT: "number of anchors",
    Axis.SIGMA_MS: "timing noise sigma [ms]",
    Axis.STEEPNESS_A: "sound speed steepness [1/s]",
    Axis.DELTA_METERS: "AUV displacement [m]",
    Axis.SCALE_K: "radius scale k",
}


def emit_plot(table: ResultTable, spec: SweepSpec | None, path: str) -> None:
    """Write an SVG chart of the table: one line per scheme.

    Plots RMSE when the table has any, otherwise the CRLB trace.  The
    y-axis switches to log scale when values span two decades or more.
    spec None labels the x axis from the rows themselves.
    """
    if not table.rows:
        raise EmptyTable("nothing to plot")
    use_rmse = any(math.isfinite(r.rmse_m) for r in table.rows)
    series: dict[str, list[tuple[float, float]]] = {}
    for r in table.rows:
        y = r.rmse_m if use_rmse else r.trace_crlb_m2
        if math.isfinite(y):
            series.setdefault(r.scheme, []).append((r.axis_value, y))
    if not series:
        raise EmptyTable("no finite values to plot")
    ys = [y for data in series.values() for _, y in data]
    log_y = min(ys) > 0 and max(ys) / min(ys) >= 100.0
    if spec is not None:
        x_label = _AXIS_LABEL.get(spec.axis, spec.axis.value)
    else:
        x_label = table.rows[0].axis_name
    svg = _svg.polyline_chart(
        [(name, data) for name, data in series.items()],
        x_label=x_label,
        y_label="RMSE [m]" if use_rmse else "tr(CRLB) [m^2]",
        log_y=log_y,
    )
    _write_text(path, svg, "SVG")


# ---------------------------------------------------------------------------
# figure presets


DEFAULT_SSP = SoundSpeedProfile(surface_speed_b=1480.0, steepness_a=0.1)
DEFAULT_TRIALS = 2000


def fig3_spec(master_seed: int = 0) -> SweepSpec:
    """CRLB trace against the radius scale for 4..8 anchors."""
    base = Scenario(
        auv_truth=Position(50.0, 50.0, 50.0),
        deployment=Usc(scale_k=1.0, n=4),
        ssp=DEFAULT_SSP,
        noise=NoiseModel.distance_dependent(),
        trials=1,
        master_seed=master_seed,
    )
    values = tuple(round(0.5 + 0.05 * i, 2) for i in range(21))
    schemes = {f"usc-n{n}": Variant(deployment=Usc(scale_k=1.0, n=n)) for n in range(4, 9)}
    return SweepSpec(axis=Axis.SCALE_K, values=values, base=base, schemes=schemes)


def _fig4_spec(auv: Position, master_seed: int, trials: int) -> SweepSpec:
    base = Scenario(
        auv_truth=auv,
        deployment=Usc(scale_k=None, n=4),
        ssp=DEFAULT_SSP,
        noise=NoiseModel.distance_dependent(),
        trials=trials,
        master_seed=master_seed,
    )
    schemes = {
        "usc": Variant(deployment=Usc(scale_k=None, n=4)),
        "cube": Variant(deployment=Cube()),
        "random": Variant(deployment=Random(seed=None)),
    }
    return SweepSpec(
        axis=Axis.ANCHOR_COUNT, values=(4.0, 5.0, 6.0, 7.0, 8.0), base=base, schemes=schemes
    )


def fig4a_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """RMSE against anchor count, three schemes, shallow scene."""
    return _fig4_spec(Position(50.0, 50.0, 50.0), master_seed, trials)


def fig4b_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """Same comparison with the AUV at (100, 100, 100)."""
    return _fig4_spec(Position(100.0, 100.0, 100.0), master_seed, trials)


def _mean_range(pts: np.ndarray, auv: np.ndarray) -> float:
    # mean slant range from the AUV to an (N, 3) layout, in m
    return float(np.linalg.norm(pts - auv, axis=1).mean())


def _rescale_to_mean_range(
    anchors: list[Position], auv: Position, target_mean: float
) -> tuple[Position, ...]:
    a0 = auv.as_array()
    pts = np.array([p.as_array() for p in anchors])
    scaled = a0 + target_mean / _mean_range(pts, a0) * (pts - a0)
    return tuple(Position(*row) for row in scaled)


def fig5_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """RMSE against timing noise at matched mean anchor-AUV distance.

    The three layouts are frozen up front and radially rescaled about
    the AUV so each has the same mean anchor distance, which isolates
    the geometry effect from the plain range effect.
    """
    auv = Position(50.0, 50.0, 50.0)
    noise = NoiseModel.constant_variance(1e-3)
    k5 = optimize_k(auv.z, 8, DEFAULT_SSP, noise).k_star
    usc = usc_positions(auv, 8, k5)
    mean_range = _mean_range(np.array([p.as_array() for p in usc]), auv.as_array())
    center, side = default_cube_for(auv)
    cube = _rescale_to_mean_range(cube_positions(center, side, 8), auv, mean_range)
    rand = _rescale_to_mean_range(
        random_positions(default_box_for(auv), 8, master_seed), auv, mean_range
    )
    base = Scenario(
        auv_truth=auv,
        deployment=FixedAnchors(tuple(usc)),
        ssp=DEFAULT_SSP,
        noise=noise,
        trials=trials,
        master_seed=master_seed,
    )
    schemes = {
        "usc": Variant(deployment=FixedAnchors(tuple(usc))),
        "cube": Variant(deployment=FixedAnchors(cube)),
        "random": Variant(deployment=FixedAnchors(rand)),
    }
    return SweepSpec(
        axis=Axis.SIGMA_MS, values=(0.1, 0.5, 1.0, 5.0, 10.0), base=base, schemes=schemes
    )


def fig6_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """Frozen-anchor vs tracking-anchor robustness to AUV displacement."""
    auv = Position(50.0, 50.0, 50.0)
    noise = NoiseModel.constant_variance(1e-3)
    k6 = optimize_k(auv.z, 8, DEFAULT_SSP, noise).k_star
    base = Scenario(
        auv_truth=auv,
        deployment=Usc(scale_k=k6, n=8),
        ssp=DEFAULT_SSP,
        noise=noise,
        trials=trials,
        master_seed=master_seed,
        movement=RmUsc(0.0),
    )
    schemes = {
        "rm-usc": Variant(movement=RmUsc(0.0)),
        "rs-usc": Variant(movement=RsUsc(0.0)),
    }
    return SweepSpec(
        axis=Axis.DELTA_METERS,
        values=(0.0, 100.0, 200.0, 300.0, 400.0, 500.0),
        base=base,
        schemes=schemes,
    )


FIGURE_SPECS = {
    "3": fig3_spec,
    "4a": fig4a_spec,
    "4b": fig4b_spec,
    "5": fig5_spec,
    "6": fig6_spec,
}
