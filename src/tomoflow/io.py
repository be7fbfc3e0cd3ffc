"""File formats: IGRD grids, ISIN sinograms, 16-bit PGM previews, manifests.

Both binary formats are little-endian. IGRD: magic "IGRD", version byte
1, u32 nx, u32 ny, f64 x_min/x_max/y_min/y_max, then nx*ny f64 values
row-major (y outer). ISIN: magic "ISIN", version byte 1, u32 n_angles,
u32 n_detectors, f64 s_min/s_max, then angle-major f64 values.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .grid import Grid2D, ScalarImage
from .tomo import Sinogram, SinogramGeometry

IGRD_MAGIC = b"IGRD"
ISIN_MAGIC = b"ISIN"
FORMAT_VERSION = 1


def _read_header(fh, path, kind: str, fmt: str) -> tuple:
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise ValueError(f"{path}: truncated {kind} header")
    return struct.unpack(fmt, raw)


def _read_payload(fh, path, kind: str, count: int) -> np.ndarray:
    """``count`` f64 values, checked against the bytes left in the file
    before anything is read, so a header's declared size is never trusted."""
    if 8 * count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {kind} payload")
    return np.frombuffer(fh.read(8 * count), dtype="<f8")


def write_igrd(path, img: ScalarImage) -> None:
    g = img.grid
    header = IGRD_MAGIC + struct.pack(
        "<BIIdddd", FORMAT_VERSION, g.nx, g.ny, g.x_min, g.x_max, g.y_min, g.y_max
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(img.values, dtype="<f8").tobytes())


def read_igrd(path) -> ScalarImage:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != IGRD_MAGIC:
            raise ValueError(f"{path}: not an IGRD file (magic {magic!r})")
        version, nx, ny, x_min, x_max, y_min, y_max = _read_header(fh, path, "IGRD", "<BIIdddd")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported IGRD version {version}")
        data = _read_payload(fh, path, "IGRD", nx * ny)
    grid = Grid2D(nx=nx, ny=ny, x_min=x_min, x_max=x_max, y_min=y_min, y_max=y_max)
    return ScalarImage(grid, data.reshape(ny, nx).copy())


def write_isin(path, sino: Sinogram) -> None:
    geom = sino.geometry
    header = ISIN_MAGIC + struct.pack(
        "<BIIdd", FORMAT_VERSION, geom.n_angles, geom.n_detectors, geom.s_min, geom.s_max
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(sino.values, dtype="<f8").tobytes())


def read_isin(path, grid: Grid2D | None = None) -> Sinogram:
    """Read a sinogram; the ray sampling step is derived from ``grid`` when
    given (half the smaller pixel spacing), else from the detector spacing."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != ISIN_MAGIC:
            raise ValueError(f"{path}: not an ISIN file (magic {magic!r})")
        version, m, p, s_min, s_max = _read_header(fh, path, "ISIN", "<BIIdd")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported ISIN version {version}")
        data = _read_payload(fh, path, "ISIN", m * p)
    hs = (s_max - s_min) / p
    ray_step = 0.5 * min(grid.hx, grid.hy) if grid is not None else 0.5 * hs
    geom = SinogramGeometry(
        n_angles=m, n_detectors=p, s_min=s_min, s_max=s_max, ray_step=ray_step
    )
    return Sinogram(geom, data.reshape(m, p).copy())


def write_pgm16(path, img: ScalarImage) -> None:
    """16-bit binary PGM preview, values clipped from [0, 1]; top row is y_max."""
    g = img.grid
    scaled = np.clip(img.values, 0.0, 1.0) * 65535.0
    pixels = np.flipud(np.rint(scaled).astype(">u2"))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{g.nx} {g.ny}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_manifest(path, entries: dict) -> None:
    import scipy

    payload = dict(entries)
    payload.setdefault("versions", {})
    payload["versions"].update({"numpy": np.__version__, "scipy": scipy.__version__})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
