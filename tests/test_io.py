import json
import struct

import numpy as np
import pytest

from tomoflow import Grid2D, ScalarImage, Sinogram, make_parallel_geometry
from tomoflow.io import (
    read_igrd,
    read_isin,
    write_igrd,
    write_isin,
    write_manifest,
    write_pgm16,
)


def test_igrd_roundtrip_bit_exact(tmp_path):
    g = Grid2D(24, 16, -16.0, 16.0, -8.0, 8.0)
    rng = np.random.default_rng(0)
    img = ScalarImage(g, rng.standard_normal(g.shape))
    path = tmp_path / "img.igrd"
    write_igrd(path, img)
    back = read_igrd(path)
    assert back.grid == g
    np.testing.assert_array_equal(back.values, img.values)


def test_igrd_header_layout(tmp_path):
    g = Grid2D(4, 3)
    img = ScalarImage.zeros(g)
    path = tmp_path / "img.igrd"
    write_igrd(path, img)
    raw = path.read_bytes()
    assert raw[:4] == b"IGRD"
    assert raw[4] == 1
    assert len(raw) == 4 + 1 + 8 + 32 + 8 * 12


def test_igrd_rejects_garbage(tmp_path):
    path = tmp_path / "bad.igrd"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_igrd(path)


@pytest.mark.parametrize("keep", [5, 6, 44])
def test_igrd_truncated_header(tmp_path, keep):
    path = tmp_path / "img.igrd"
    write_igrd(path, ScalarImage.zeros(Grid2D(4, 3)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="truncated IGRD header"):
        read_igrd(path)


@pytest.mark.parametrize("keep", [5, 6, 28])
def test_isin_truncated_header(tmp_path, keep):
    path = tmp_path / "data.isin"
    write_isin(path, Sinogram.zeros(make_parallel_geometry(Grid2D(32, 32), 6, 48)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match="truncated ISIN header"):
        read_isin(path)


U32_MAX = 2**32 - 1


def _with_sizes(raw, a, b):
    """The file with the two u32 sizes after magic and version replaced."""
    return raw[:5] + struct.pack("<II", a, b) + raw[13:]


@pytest.mark.parametrize("sizes", [(U32_MAX, U32_MAX), (4, 4)], ids=["u32_max", "one_row_more"])
def test_igrd_oversized_header(tmp_path, sizes):
    path = tmp_path / "img.igrd"
    write_igrd(path, ScalarImage.zeros(Grid2D(4, 3)))
    path.write_bytes(_with_sizes(path.read_bytes(), *sizes))
    with pytest.raises(ValueError, match="truncated IGRD payload"):
        read_igrd(path)


@pytest.mark.parametrize("sizes", [(U32_MAX, U32_MAX), (6, 49)], ids=["u32_max", "one_detector_more"])
def test_isin_oversized_header(tmp_path, sizes):
    path = tmp_path / "data.isin"
    write_isin(path, Sinogram.zeros(make_parallel_geometry(Grid2D(32, 32), 6, 48)))
    path.write_bytes(_with_sizes(path.read_bytes(), *sizes))
    with pytest.raises(ValueError, match="truncated ISIN payload"):
        read_isin(path)


def test_igrd_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "img.igrd"
    write_igrd(path, ScalarImage.zeros(Grid2D(4, 3)))
    path.write_bytes(path.read_bytes() + bytes(2400))
    with pytest.raises(ValueError, match=f"^{path}: 2400 bytes after the IGRD payload$"):
        read_igrd(path)


def test_isin_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "data.isin"
    write_isin(path, Sinogram.zeros(make_parallel_geometry(Grid2D(32, 32), 6, 48)))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match=f"^{path}: 8 bytes after the ISIN payload$"):
        read_isin(path)


def test_isin_roundtrip(tmp_path):
    g = Grid2D(32, 32)
    geom = make_parallel_geometry(g, 6, 48)
    rng = np.random.default_rng(1)
    sino = Sinogram(geom, rng.standard_normal(geom.shape))
    path = tmp_path / "data.isin"
    write_isin(path, sino)
    back = read_isin(path)
    assert back.geometry == geom
    np.testing.assert_array_equal(back.values, sino.values)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_igrd_rejects_non_finite_payload(tmp_path, value):
    values = np.zeros((3, 4))
    values[1, 2] = value
    path = tmp_path / "img.igrd"
    write_igrd(path, ScalarImage(Grid2D(4, 3), values))
    with pytest.raises(ValueError, match=f"^{path}: non-finite value in IGRD payload$"):
        read_igrd(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_isin_rejects_non_finite_payload(tmp_path, value):
    sino = Sinogram.zeros(make_parallel_geometry(Grid2D(32, 32), 6, 48))
    sino.values[5, 47] = value
    path = tmp_path / "data.isin"
    write_isin(path, sino)
    with pytest.raises(ValueError, match=f"^{path}: non-finite value in ISIN payload$"):
        read_isin(path)


def test_isin_header(tmp_path):
    g = Grid2D(32, 32)
    geom = make_parallel_geometry(g, 6, 48)
    path = tmp_path / "data.isin"
    write_isin(path, Sinogram.zeros(geom))
    raw = path.read_bytes()
    assert raw[:4] == b"ISIN"
    assert raw[4] == 1
    assert len(raw) == 4 + 1 + 8 + 16 + 8 * 6 * 48


def test_pgm16_format(tmp_path):
    g = Grid2D(5, 4)
    img = ScalarImage(g, np.linspace(0, 1, 20).reshape(4, 5))
    path = tmp_path / "img.pgm"
    write_pgm16(path, img)
    raw = path.read_bytes()
    header, pixels = raw.split(b"65535\n", 1)
    assert header == b"P5\n5 4\n"
    assert len(pixels) == 2 * 20
    data = np.frombuffer(pixels, dtype=">u2").reshape(4, 5)
    assert data.max() == 65535
    assert data.min() == 0
    # top row of the file is the top of the image (y_max), i.e. the last row
    assert data[0, 0] == np.rint(img.values[-1, 0] * 65535)


def test_manifest_contains_versions(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, {"seed": 7, "config_sha256": "abc"})
    payload = json.loads(path.read_text())
    assert payload["seed"] == 7
    assert "numpy" in payload["versions"]
    assert "scipy" in payload["versions"]
