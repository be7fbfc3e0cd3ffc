"""File formats: IGRD grids, ISIN sinograms, 16-bit PGM previews, CSV
tables, manifests. This is the one module of the package that writes
files: the CLI and the experiment runner write every output through it.

Both binary formats are one little-endian container: a magic, version
byte 1, two u32 sizes, f64 extents, then the f64 values. IGRD: magic
"IGRD", nx, ny, x_min/x_max/y_min/y_max, then nx*ny values row-major
(y outer). ISIN: magic "ISIN", n_angles, n_detectors, s_min/s_max, then
angle-major values: the whole ``SinogramGeometry``. Readers reject
truncated files, bytes after the payload and non-finite values.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np

from .grid import Grid2D, ScalarImage
from .tomo import Sinogram, SinogramGeometry

IGRD_MAGIC = b"IGRD"
ISIN_MAGIC = b"ISIN"
FORMAT_VERSION = 1


def _write_container(path, magic: bytes, sizes: tuple, extents: tuple, values: np.ndarray) -> None:
    header = magic + struct.pack(f"<BII{len(extents)}d", FORMAT_VERSION, *sizes, *extents)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _read_container(path, magic: bytes, n_extents: int) -> tuple:
    """The two sizes, the extents and the flat payload of ``size0 * size1``
    finite f64 values. The bytes left in the file are checked before the
    payload is read, so a header's declared size is never trusted: the
    payload must fill the rest of the file exactly."""
    kind = magic.decode("ascii")
    fmt = f"<BII{n_extents}d"
    with open(path, "rb") as fh:
        found = fh.read(4)
        if found != magic:
            raise ValueError(f"{path}: not an {kind} file (magic {found!r})")
        raw = fh.read(struct.calcsize(fmt))
        if len(raw) != struct.calcsize(fmt):
            raise ValueError(f"{path}: truncated {kind} header")
        version, size0, size1, *extents = struct.unpack(fmt, raw)
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported {kind} version {version}")
        extra = os.fstat(fh.fileno()).st_size - fh.tell() - 8 * size0 * size1
        if extra < 0:
            raise ValueError(f"{path}: truncated {kind} payload")
        if extra > 0:
            raise ValueError(f"{path}: {extra} bytes after the {kind} payload")
        data = np.frombuffer(fh.read(8 * size0 * size1), dtype="<f8")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value in {kind} payload")
    return (size0, size1), extents, data


def write_igrd(path, img: ScalarImage) -> None:
    g = img.grid
    _write_container(path, IGRD_MAGIC, (g.nx, g.ny), (g.x_min, g.x_max, g.y_min, g.y_max), img.values)


def read_igrd(path) -> ScalarImage:
    (nx, ny), (x_min, x_max, y_min, y_max), data = _read_container(path, IGRD_MAGIC, 4)
    grid = Grid2D(nx=nx, ny=ny, x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max)
    return ScalarImage(grid, data.reshape(ny, nx).copy())


def write_isin(path, sino: Sinogram) -> None:
    g = sino.geometry
    _write_container(path, ISIN_MAGIC, (g.n_angles, g.n_detectors), (g.s_min, g.s_max), sino.values)


def read_isin(path) -> Sinogram:
    (m, p), (s_min, s_max), data = _read_container(path, ISIN_MAGIC, 2)
    geom = SinogramGeometry(n_angles=m, n_detectors=p, s_min=s_min, s_max=s_max)
    return Sinogram(geom, data.reshape(m, p).copy())


def write_pgm16(path, img: ScalarImage) -> None:
    """16-bit binary PGM preview, values clipped from [0, 1]; top row is y_max."""
    g = img.grid
    scaled = np.clip(img.values, 0.0, 1.0) * 65535.0
    pixels = np.flipud(np.rint(scaled).astype(">u2"))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{g.nx} {g.ny}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())


def preview_path(path) -> Path:
    """The path of the PGM preview of the image at ``path``: ``path`` with
    the suffix ``.pgm``. A path that is its own preview's path raises
    ValueError, so the preview never overwrites the image."""
    preview = Path(path).with_suffix(".pgm")
    if preview == Path(path):
        raise ValueError(f"{path}: an image path must not end in .pgm, the suffix of its preview")
    return preview


def check_output_dir(path) -> None:
    """Raise the OSError that writing ``path`` would raise because its
    directory is missing or is not a directory, so that a command fails
    before any work."""
    try:
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))  # the trailing "/" asks for a directory
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def write_image(path, img: ScalarImage) -> None:
    """The IGRD at ``path`` and its 16-bit PGM preview at ``preview_path(path)``,
    which is checked before anything is written."""
    preview = preview_path(path)
    write_igrd(path, img)
    write_pgm16(preview, img)


def write_table(path, header: list, rows) -> None:
    """A CSV file in ``csv``'s default dialect: the header row, then the rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(path, entries: dict) -> None:
    import scipy

    payload = dict(entries, versions={"numpy": np.__version__, "scipy": scipy.__version__})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
