"""CSV ingestion and emission for samples of grid functions.

Data file: one row per observation, columns are the function values at the
grid points, no header.  Sidecar file: header ``grid,w`` followed by one row
per grid point giving the abscissa and the *pointwise* weight; combined
quadrature weights are rebuilt with :func:`blockboot.hilbert.trapezoid_weights`
on read.  Scalar series need no sidecar.

All floats are written with ``repr``, which round-trips every finite double
bit-exactly.  Both files are read with :func:`numpy.loadtxt`, which gives each
cell the double ``float`` gives it; blank lines are skipped, and a bad cell or
row is a :class:`ValueError` of the path and numpy's message (row, column).
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import EmptyInputError
from .hilbert import HilbertSample, trapezoid_weights


def _fmt_row(row) -> str:
    return ",".join(repr(float(v)) for v in row)


def _parse_rows(lines: list[str], path: str) -> np.ndarray:
    lines = [line if line.strip() else "" for line in lines]  # numpy rejects "   "
    if not any(lines):
        raise EmptyInputError(f"{path}: no data rows")
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
    if not np.all(np.isfinite(sample.values)):
        raise ValueError("only finite values can be round-tripped")
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
    table = _parse_rows(lines[1:], sidecar_path)
    if table.shape[1] != 2:
        raise ValueError(f"{sidecar_path}: expected two columns (grid, w)")
    grid, w = table[:, 0], table[:, 1]
    if grid.size != values.shape[1]:
        raise ValueError(
            f"{sidecar_path}: grid length {grid.size} does not match "
            f"{values.shape[1]} data columns"
        )
    return HilbertSample(grid, trapezoid_weights(grid, w), values)
