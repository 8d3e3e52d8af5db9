"""CSV ingestion and emission for samples of grid functions, and the JSON text of reports.

Data file: one row per observation, columns are the function values at the
grid points, no header.  Sidecar file: header ``grid,w`` followed by one row
per grid point giving the abscissa and the *pointwise* weight; combined
quadrature weights are rebuilt with :func:`blockboot.hilbert.trapezoid_weights`
on read.  Scalar series need no sidecar.

All floats are written with ``repr``, which round-trips every finite double
bit-exactly.  Both files are read with :func:`numpy.loadtxt`, which gives each
cell the double ``float`` gives it; blank lines are skipped.  Lines break where
``str.splitlines`` breaks them, and they are passed to ``loadtxt`` one at a
time, so a read holds neither the file's text nor a list of its lines: its
peak is about twice the parsed table (the table and the sample's frozen copy).
A cell that is not a number or is not finite, or a row whose column count
differs from the first row's, is a :class:`ValueError` that starts
``<path>:<line>:``, with the 1-based line of the file; the file is read again
to find that line.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .exceptions import EmptyInputError
from .hilbert import HilbertSample, trapezoid_weights


def _fmt_row(row) -> str:
    return ",".join(repr(float(v)) for v in row)


def _loads(lines) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)


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


def _lines(fh):
    """The lines of ``fh`` as ``str.splitlines`` splits its whole text, whitespace-only
    lines as ``""`` (numpy skips ``""`` and rejects ``"   "``)."""
    for physical in fh:  # universal newlines: "\r" and "\r\n" arrive as "\n"
        for line in physical.splitlines():
            yield line if line.strip() else ""


def _file_lines(path: str, first: int) -> list[str]:
    """Lines ``first`` onward of ``path``, as :func:`_lines` gives them, from the whole text
    decoded at once, so that a byte that is not ASCII is named by its offset in the file."""
    with open(path, "r", encoding="ascii") as fh:
        return list(_lines([fh.read()]))[first - 1 :]


def _parse_rows(lines, path: str, first: int = 1) -> np.ndarray:
    """The rows of ``lines``, line ``first`` onward of ``path`` from :func:`_lines`, as a
    finite float matrix.  ``lines`` is read once; an error re-reads ``path`` to name its line."""
    head = next((line for line in lines if line), None)
    if head is None:
        raise EmptyInputError(f"{path}: no data rows")
    try:
        table = _loads(itertools.chain([head], lines))
    except ValueError as exc:
        _bad_row(_file_lines(path, first), path, first)
        raise ValueError(f"{path}: {exc}") from exc
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        rows = [i for i, line in enumerate(_file_lines(path, first), first) if line]
        raise ValueError(f"{path}:{rows[np.argmin(finite)]}: non-finite value")
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
        values = _parse_rows(_lines(fh), data_path)
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
        lines = _lines(fh)
        if next(lines, "").strip().lower() != "grid,w":
            raise ValueError(f"{sidecar_path}: expected header 'grid,w'")
        table = _parse_rows(lines, sidecar_path, first=2)
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
