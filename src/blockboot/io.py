"""CSV ingestion and emission for samples of grid functions, and the JSON text of reports.

Data file: one row per observation, columns are the function values at the
grid points, no header.  Sidecar file: header ``grid,w`` followed by one row
per grid point giving the abscissa and the *pointwise* weight; combined
quadrature weights are rebuilt with :func:`blockboot.hilbert.trapezoid_weights`
on read.  Scalar series need no sidecar.

All floats are written with ``repr``, which round-trips every finite double
bit-exactly.  Both files are read with :func:`numpy.loadtxt`, which gives each
cell the double ``float`` gives it; blank lines are skipped.  A cell that is
not a number or is not finite, or a row whose column count differs from the
first row's, is a :class:`ValueError` that starts ``<path>:<line>:``, with
the 1-based line of the file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .exceptions import EmptyInputError
from .hilbert import HilbertSample, trapezoid_weights


def _fmt_row(row) -> str:
    return ",".join(repr(float(v)) for v in row)


def _loads(text: str) -> np.ndarray:
    return np.loadtxt(text, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


def _is_number(cell: str) -> bool:
    if not cell.strip():
        return False
    try:
        _loads([cell])
    except ValueError:
        return False
    return True


def _bad_row(lines: list[str], path: str, first: int) -> None:
    """Raise the error of the first line :func:`_loads` refuses: a cell or a column count."""
    width = None
    for number, line in enumerate(lines, first):
        if not line:
            continue
        cells = line.split(",")
        width = width or len(cells)
        if len(cells) != width:
            raise ValueError(f"{path}:{number}: expected {width} columns as in the first row, "
                             f"found {len(cells)}")
        for column, cell in enumerate(cells, 1):
            if not _is_number(cell):
                raise ValueError(f"{path}:{number}: column {column} is not a number: "
                                 f"{cell.strip()!r}")


def _parse_rows(lines: list[str], path: str, first: int = 1) -> np.ndarray:
    """The rows of ``lines``, line ``first`` onward of ``path``, as a finite float matrix."""
    lines = [line if line.strip() else "" for line in lines]  # numpy rejects "   "
    if not any(lines):
        raise EmptyInputError(f"{path}: no data rows")
    try:
        table = _loads(lines)
    except ValueError as exc:
        _bad_row(lines, path, first)
        raise ValueError(f"{path}: {exc}") from exc
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        number = [i for i, line in enumerate(lines, first) if line][np.argmin(finite)]
        raise ValueError(f"{path}:{number}: non-finite value")
    return table


def json_text(payload: dict) -> str:
    """A report as indented JSON text; :class:`ValueError` on ``NaN`` or ``Infinity``.

    Every report is serialized here, before its file is opened.
    """
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_sample(sample: HilbertSample, data_path: str, sidecar_path: str | None = None,
                 pointwise_w=None) -> None:
    """Write a sample to ``data_path`` and, unless scalar, a sidecar file.

    Parameters
    ----------
    sample : HilbertSample
        The observations to write.
    data_path : str
        Destination of the value rows.
    sidecar_path : str, optional
        Destination of the grid/pointwise-weight file.  Defaults to
        ``data_path + ".grid.csv"`` for non-scalar samples; scalar samples
        (d=1, unit weight) are written without a sidecar unless one is named.
    pointwise_w : array_like, optional
        Pointwise weight values to record in the sidecar; defaults to 1.  The
        trapezoid rule must rebuild ``sample.weights`` from them bitwise.
    """
    if trapezoid_weights(sample.grid, pointwise_w).tobytes() != sample.weights.tobytes():
        raise ValueError("pointwise_w does not rebuild the sample's weights by the trapezoid rule")
    with open(data_path, "w", encoding="ascii") as fh:
        for row in sample.values:
            fh.write(_fmt_row(row) + "\n")
    if sidecar_path is None:
        if sample.d == 1 and pointwise_w is None:  # unit weight, by the check above
            return
        sidecar_path = data_path + ".grid.csv"
    w = np.ones(sample.d) if pointwise_w is None else pointwise_w
    with open(sidecar_path, "w", encoding="ascii") as fh:
        fh.write("grid,w\n")
        for t, wj in zip(sample.grid, w):
            fh.write(f"{repr(float(t))},{repr(float(wj))}\n")


def read_sample(data_path: str, sidecar_path: str | None = None) -> HilbertSample:
    """Read a sample written by :func:`write_sample`.

    Without a sidecar, single-column data is read as a scalar series (grid 0,
    unit weight) and multi-column data gets the integer grid ``0..d-1`` with
    unit pointwise weight.  With a sidecar, combined weights are rebuilt by
    the trapezoid rule from the recorded grid and pointwise weights.
    """
    with open(data_path, "r", encoding="ascii") as fh:
        values = _parse_rows(fh.read().splitlines(), data_path)
    if sidecar_path is None:
        default = data_path + ".grid.csv"
        sidecar_path = default if os.path.exists(default) else None
    if sidecar_path is None:
        d = values.shape[1]
        if d == 1:
            return HilbertSample.from_scalars(values[:, 0])
        grid = np.arange(d, dtype=np.float64)
        return HilbertSample(grid, trapezoid_weights(grid), values)
    with open(sidecar_path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip().lower() != "grid,w":
        raise ValueError(f"{sidecar_path}: expected header 'grid,w'")
    table = _parse_rows(lines[1:], sidecar_path, first=2)
    if table.shape[1] != 2:
        raise ValueError(f"{sidecar_path}: expected two columns (grid, w)")
    grid, w = table[:, 0], table[:, 1]
    if grid.size != values.shape[1]:
        raise ValueError(
            f"{sidecar_path}: grid length {grid.size} does not match "
            f"{values.shape[1]} data columns"
        )
    try:
        weights = trapezoid_weights(grid, w)
    except ValueError as exc:  # an unsorted grid
        raise ValueError(f"{sidecar_path}: {exc}") from exc
    return HilbertSample(grid, weights, values)
