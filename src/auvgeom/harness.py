"""Monte-Carlo scenarios, parameter sweeps, and result export.

A Scenario bundles one simulated world: the true AUV position, an
anchor deployment rule, the sound profile, the noise model, a movement
model, and a trial budget under a master seed.  A sweep names one
scenario per scheme, varies one axis of each over a list of values and
produces a flat result table that exports to CSV and SVG.

Reproducibility contract 5: a cell (one scheme at one axis value) runs
whole in one task and draws its movement, deployment and noise streams,
children of SeedSequence([master_seed, movement_seed]), once each as a
block with a row per trial.  Results are byte-identical for any worker
count without per-trial generators, and trial t of every scheme sees the
same deviates.  A sweep builds each cell's scenario and blank row once.
A task is one cell, or a group of cells that share a sound-speed profile
and noise model and whose trials go through one estimator call whatever
their anchor counts (see ``_task_groups``); the Gauss-Newton
trajectories of different trials are independent, so grouping moves no
byte.  ``_run_mc`` returns one record per cell (``_Cell``): its truths,
bound, radius scale and estimates, which ``_mc_row`` reduces to the row.
Contracts 2 to 5 draw the same streams; rows moved at 3 (Newton-decrement
stop) and 4 (1e-9, rational ray kernel); at 5 only cells whose step hit
the span bound move.  Contract 1 seeded each trial alone.  Rows from
Monte-Carlo runs report the depth-augmented CRLB trace averaged over the
per-trial geometry, matching what the estimator (which also uses the
depth sensor) can attain; the cond > 1e12 rule of ``fim`` and the
estimator leaves a geometry out (NaN if none is left), and a static AUV
with one shared layout is one geometry.  Radius-scale sweep rows skip
the Monte-Carlo part and carry the closed-form timing-only trace.

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

    @property
    def n(self) -> int:
        return len(self.anchors)


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
class SweepSpec:
    """The axis values each named scheme's scenario is swept over."""

    axis: Axis
    values: tuple[float, ...]
    schemes: dict[str, Scenario]

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("sweep needs at least one scheme")
        if not self.values:
            raise ValueError("sweep needs at least one axis value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("axis values must be strictly increasing")


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


def _fixed_layout(s: Scenario) -> tuple[list[Position] | None, float]:
    """Anchors shared by all trials, or None when redrawn per trial.

    Returns (anchors, k_used): the radius scale is NaN but for a circle,
    whose scale_k None is optimized for the scenario's depth and noise.
    """
    dep = s.deployment
    if isinstance(dep, Usc):
        k = dep.scale_k
        if k is None:
            k = optimize_k(s.auv_truth.z, dep.n, s.ssp, s.noise).k_star
        return usc_positions(s.auv_truth, dep.n, k), k
    if isinstance(dep, Cube):
        d_center, d_side = default_cube_for(s.auv_truth)
        side = dep.side if dep.side is not None else d_side
        center = dep.center if dep.center is not None else d_center
        return cube_positions(center, side, dep.n), math.nan
    if isinstance(dep, Random):
        if dep.seed is None:
            return None, math.nan
        box = dep.box if dep.box is not None else default_box_for(s.auv_truth)
        return random_positions(box, dep.n, dep.seed), math.nan
    return list(dep.anchors), math.nan


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
    """A cell's record: the true positions, (trials, 3) or one (1, 3) row,
    the bound averaged over them and the radius scale from ``_draw_cell``,
    then the estimates (trials, 3) and converged mask from ``_run_mc``."""

    truth: np.ndarray
    trace: float
    k_used: float
    q_hat: np.ndarray | None = None
    converged: np.ndarray | None = None


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
    anchors0, k_used = _fixed_layout(s)
    n = s.deployment.n
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
    return _Cell(truth, _augmented_trace(rows, sigma2), k_used), anchor_stack, rtt, depth_meas


def _run_mc(cells: list[Scenario]) -> list[_Cell | AuvgeomError]:
    """One Monte-Carlo execution of a group of cells, in one estimator call.

    The cells share their sound-speed profile and noise model; their
    anchor counts may differ.  Each draws its trials and takes its bound
    on its own (``_draw_cell``); their trials then go through one
    ``estimate_trials`` call as one block per cell, in row order; the
    estimator orders the blocks by anchor count itself and iterates at
    most the largest cell's worth of trials at a time.  Returns, per cell
    in order, its record with its estimates, or the error it failed with.
    """
    out: list[_Cell | AuvgeomError] = []
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
        trials = cells[i].trials
        start, end = end, end + trials
        conv = converged[start:end]
        if not conv.any():
            out[i] = NoConvergedTrials(f"all {trials} trials failed to converge")
            continue
        out[i] = out[i]._replace(q_hat=q_hat[start:end], converged=conv)
    return out


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
        n_anchors=s.deployment.n,
        k=float("nan"),
        rmse_m=float("nan"),
        trace_crlb_m2=float("nan"),
        diverged=0,
        trials=s.trials,
        seed=s.master_seed,
    )


def _mc_row(row: Row, cell: _Cell | AuvgeomError) -> Row:
    if isinstance(cell, AuvgeomError):
        # every trial of a cell that converged on none diverged; other errors ran none
        diverged = row.trials if isinstance(cell, NoConvergedTrials) else 0
        return replace(row, diverged=diverged, note=f"{type(cell).__name__}: {cell}")
    conv = cell.converged
    err2 = np.sum((cell.q_hat - cell.truth)[conv] ** 2, axis=1)
    return replace(
        row, k=cell.k_used, rmse_m=float(np.sqrt(err2.mean())), trace_crlb_m2=cell.trace,
        diverged=int((~conv).sum()),
    )


def run_scenario(s: Scenario, axis_name: str = "single", axis_value: float = 0.0) -> Row:
    """Execute one scenario and summarize it as a table row."""
    [cell] = _run_mc([s])
    if isinstance(cell, AuvgeomError):
        raise cell
    scheme = _scheme_label(s.deployment, s.movement)
    return _mc_row(_blank_row(s, axis_name, axis_value, scheme), cell)


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


# one sweep cell: its blank row and its scenario
_SweepCell = tuple[Row, Scenario]


def _sweep_one(spec: SweepSpec, cells: list[_SweepCell]) -> list[Row]:
    """The rows of one task: a group of cells.

    A failed cell becomes an annotated row; the others keep theirs.
    """
    if spec.axis is Axis.SCALE_K:
        # analytic rows: no Monte-Carlo, timing-only closed form
        out = []
        for row, s in cells:
            k, row = row.axis_value, replace(row, trials=0)
            try:
                with np.errstate(over="ignore"):
                    trace = k_objective(k, s.auv_truth.z, s.deployment.n, s.ssp, s.noise)
            except AuvgeomError as e:
                # a scene the closed form refuses, such as too few anchors
                out.append(replace(row, note=f"{type(e).__name__}: {e}"))
            else:
                out.append(replace(row, k=k, trace_crlb_m2=trace))
        return out
    return [_mc_row(row, cell) for (row, _), cell in zip(cells, _run_mc([s for _, s in cells]))]


def _sweep_cells(spec: SweepSpec) -> list[_SweepCell]:
    """Every cell, scheme-major: the row order."""
    cells = []
    for scheme, scene in spec.schemes.items():
        for value in spec.values:
            s = _apply_axis(scene, spec.axis, value)
            cells.append((_blank_row(s, spec.axis.value, value, scheme), s))
    return cells


def _task_groups(cells: list[_SweepCell]) -> list[list[int]]:
    """Indices into cells, one list per task, in the order of their first cell.

    Monte-Carlo cells that share a sound-speed profile and noise model
    form one task when any of them draws a layout per trial, whatever
    their anchor counts, so their iteration tails share one estimator
    loop.  Every other cell is a task of its own: merging ``fig5``'s
    fixed-layout cells by profile and noise model kept the bytes but
    bought no speed (0.94-1.07 times the per-cell speed, serial and on
    two workers), and slot refills raised ``mc_fig5_par``'s estimator
    kernel calls from 191 to 216 and its peak RSS by 4%.
    """
    keys = [(s.ssp, s.noise) for _, s in cells]
    merged = {key for key, (_, s) in zip(keys, cells) if _draws_layouts(s)}
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
    groups = _task_groups(cells)

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
    Axis.ANCHOR_COUNT.value: "number of anchors",
    Axis.SIGMA_MS.value: "timing noise sigma [ms]",
    Axis.STEEPNESS_A.value: "sound speed steepness [1/s]",
    Axis.DELTA_METERS.value: "AUV displacement [m]",
    Axis.SCALE_K.value: "radius scale k",
}


def emit_plot(table: ResultTable, path: str) -> None:
    """Write an SVG chart of the table: one line per scheme.

    Plots RMSE when the table has any, otherwise the CRLB trace.  The
    y-axis switches to log scale when values span two decades or more.
    The x axis is labelled by the rows' axis name, through _AXIS_LABEL.
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
    axis_name = table.rows[0].axis_name
    svg = _svg.polyline_chart(
        [(name, data) for name, data in series.items()],
        x_label=_AXIS_LABEL.get(axis_name, axis_name),
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
    scene = Scenario(
        auv_truth=Position(50.0, 50.0, 50.0),
        deployment=Usc(scale_k=1.0),
        ssp=DEFAULT_SSP,
        noise=NoiseModel.distance_dependent(),
        trials=1,
        master_seed=master_seed,
    )
    values = tuple(round(0.5 + 0.05 * i, 2) for i in range(21))
    schemes = {f"usc-n{n}": replace(scene, deployment=Usc(scale_k=1.0, n=n)) for n in range(4, 9)}
    return SweepSpec(axis=Axis.SCALE_K, values=values, schemes=schemes)


def _fig4_spec(auv: Position, master_seed: int, trials: int) -> SweepSpec:
    scene = Scenario(
        auv_truth=auv,
        deployment=Usc(scale_k=None, n=4),
        ssp=DEFAULT_SSP,
        noise=NoiseModel.distance_dependent(),
        trials=trials,
        master_seed=master_seed,
    )
    schemes = {
        "usc": scene,
        "cube": replace(scene, deployment=Cube()),
        "random": replace(scene, deployment=Random(seed=None)),
    }
    return SweepSpec(axis=Axis.ANCHOR_COUNT, values=(4.0, 5.0, 6.0, 7.0, 8.0), schemes=schemes)


def fig4a_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """RMSE against anchor count, three schemes, shallow scene."""
    return _fig4_spec(Position(50.0, 50.0, 50.0), master_seed, trials)


def fig4b_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """Same comparison with the AUV at (100, 100, 100)."""
    return _fig4_spec(Position(100.0, 100.0, 100.0), master_seed, trials)


def _to_mean_range(anchors: list[Position], auv: Position, like: list[Position]):
    """anchors scaled radially about the AUV to the mean slant range of like."""
    a0 = auv.as_array()
    pts, ref = (np.array([p.as_array() for p in x]) for x in (anchors, like))
    mean, target = (float(np.linalg.norm(x - a0, axis=1).mean()) for x in (pts, ref))
    return tuple(Position(*row) for row in a0 + target / mean * (pts - a0))


def fig5_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """RMSE against timing noise at matched mean anchor-AUV distance.

    The three layouts are frozen up front; cube and random are radially
    rescaled about the AUV to the circle's mean anchor distance, which
    isolates the geometry effect from the plain range effect.
    """
    auv = Position(50.0, 50.0, 50.0)
    scene = Scenario(
        auv_truth=auv,
        deployment=Usc(n=8),
        ssp=DEFAULT_SSP,
        noise=NoiseModel.constant_variance(1e-3),
        trials=trials,
        master_seed=master_seed,
    )
    usc, _ = _fixed_layout(scene)
    layouts = {"usc": tuple(usc)}
    for name, dep in (("cube", Cube()), ("random", Random(seed=master_seed))):
        anchors, _ = _fixed_layout(replace(scene, deployment=dep))
        layouts[name] = _to_mean_range(anchors, auv, usc)
    schemes = {name: replace(scene, deployment=FixedAnchors(a)) for name, a in layouts.items()}
    return SweepSpec(axis=Axis.SIGMA_MS, values=(0.1, 0.5, 1.0, 5.0, 10.0), schemes=schemes)


def fig6_spec(master_seed: int = 0, trials: int = DEFAULT_TRIALS) -> SweepSpec:
    """Frozen-anchor vs tracking-anchor robustness to AUV displacement."""
    auv = Position(50.0, 50.0, 50.0)
    noise = NoiseModel.constant_variance(1e-3)
    k6 = optimize_k(auv.z, 8, DEFAULT_SSP, noise).k_star
    scene = Scenario(
        auv_truth=auv,
        deployment=Usc(scale_k=k6, n=8),
        ssp=DEFAULT_SSP,
        noise=noise,
        trials=trials,
        master_seed=master_seed,
        movement=RmUsc(0.0),
    )
    schemes = {"rm-usc": scene, "rs-usc": replace(scene, movement=RsUsc(0.0))}
    return SweepSpec(
        axis=Axis.DELTA_METERS, values=(0.0, 100.0, 200.0, 300.0, 400.0, 500.0), schemes=schemes
    )


FIGURE_SPECS = {
    "3": fig3_spec,
    "4a": fig4a_spec,
    "4b": fig4b_spec,
    "5": fig5_spec,
    "6": fig6_spec,
}
