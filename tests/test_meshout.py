import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from minksurf import meshout, textfmt
from minksurf.domain import DomainGrid, sample_data
from minksurf.meshout import (MeshExportError, export_mesh, project_surface,
                              triangulate, write_curvature_csv, write_report)
from minksurf.surfaces import (GeometryKind, SurfaceSample, make_affine_surface,
                               make_quadric_surface)
from minksurf.verify import verify_surface
from minksurf.minkowski import E0


def _plane_surface(n=9):
    g = DomainGrid.square(1.0, n)
    zs = g.zs()
    x = np.stack([np.zeros(g.shape), zs.real, zs.imag, np.zeros(g.shape)], axis=-1)
    return g, SurfaceSample(grid=g, kind=GeometryKind.AFFINE_E3, x=x,
                            mask=np.ones(g.shape, dtype=bool),
                            params={"p": (1.0, 0.0, 0.0, 0.0)})


def test_vertex_count_matches_unmasked(tmp_path):
    g, s = _plane_surface(9)
    s.mask[0, 0] = False
    nverts, nfaces = export_mesh(s, tmp_path / "m.obj")
    assert nverts == int(s.mask.sum())


def test_masked_node_drops_incident_faces(tmp_path):
    g, s = _plane_surface(9)
    _nv, full_faces = export_mesh(s, tmp_path / "full.obj")
    s.mask[4, 4] = False
    _nv2, fewer = export_mesh(s, tmp_path / "hole.obj")
    assert fewer == full_faces - 8  # four incident cells, two triangles each


def test_obj_format_and_determinism(tmp_path):
    g, s = _plane_surface(5)
    export_mesh(s, tmp_path / "a.obj")
    export_mesh(s, tmp_path / "b.obj")
    a = (tmp_path / "a.obj").read_bytes()
    assert a == (tmp_path / "b.obj").read_bytes()
    lines = a.decode().splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    flines = [l for l in lines if l.startswith("f ")]
    assert len(vlines) == 25 and len(flines) == 32
    idx = sorted({int(tok) for l in flines for tok in l.split()[1:]})
    assert idx[0] == 1 and idx[-1] == 25  # 1-based, all vertices used


def test_plane_winding_consistent(tmp_path):
    g, s = _plane_surface(7)
    export_mesh(s, tmp_path / "p.obj")
    lines = (tmp_path / "p.obj").read_text().splitlines()
    verts = np.array([[float(t) for t in l.split()[1:]] for l in lines
                      if l.startswith("v ")])
    normals = []
    for l in lines:
        if l.startswith("f "):
            i, j, k = (int(t) - 1 for t in l.split()[1:])
            n = np.cross(verts[j] - verts[i], verts[k] - verts[i])
            normals.append(n / np.linalg.norm(n))
    normals = np.array(normals)
    assert np.allclose(normals, normals[0])


def test_ply_binary_roundtrip(tmp_path):
    g, s = _plane_surface(5)
    quality = np.abs(s.x[..., 1])
    nverts, nfaces = export_mesh(s, tmp_path / "m.ply", mesh_format="ply",
                                 quality=quality)
    raw = (tmp_path / "m.ply").read_bytes()
    header, _, body = raw.partition(b"end_header\n")
    text = header.decode("ascii")
    assert "format binary_little_endian 1.0" in text
    assert f"element vertex {nverts}" in text
    assert f"element face {nfaces}" in text
    vrec = struct.calcsize("<4d")
    verts = [struct.unpack_from("<4d", body, i * vrec) for i in range(nverts)]
    qual = np.array([v[3] for v in verts])
    assert np.allclose(qual, quality[s.mask])
    off = nverts * vrec
    frec = struct.calcsize("<B3i")
    faces = [struct.unpack_from("<B3i", body, off + i * frec) for i in range(nfaces)]
    assert all(f[0] == 3 for f in faces)
    assert len(body) == off + nfaces * frec


def test_poincare_projection_of_horosphere_base(tmp_path):
    g = DomainGrid.square(1.0, 9)
    data = sample_data("0", "1", g, eps_crit=0.0)
    s = make_quadric_surface(data, 1.0, -1.0)
    pts, ok = project_surface(s, "default")
    iv, iu = g.base_index
    assert ok[iv, iu]
    assert np.allclose(pts[iv, iu], 0.0)  # x = e0 maps to the ball center


def test_default_projections_by_kind():
    g, s = _plane_surface(5)
    pts, ok = project_surface(s)  # affine-e3: (x1, x2, x3)
    assert np.allclose(pts[..., 0], s.x[..., 1])
    s.kind = GeometryKind.AFFINE_L3
    pts, _ = project_surface(s)
    assert np.allclose(pts[..., 2], s.x[..., 0])
    s.kind = GeometryKind.AFFINE_ISOTROPIC
    pts, _ = project_surface(s)
    assert np.allclose(pts[..., 2], 0.5 * (s.x[..., 0] - s.x[..., 3]))
    with pytest.raises(ValueError):
        project_surface(s, "no-such-model")


def test_pole_masked_projections():
    g, s = _plane_surface(5)
    s.kind = GeometryKind.QUADRIC_DESITTER
    s.x = np.zeros(g.shape + (4,))
    s.x[..., 3] = -1.0  # 1 + x3 = 0: stereographic pole
    _pts, ok = project_surface(s)
    assert not ok.any()
    s.kind = GeometryKind.QUADRIC_LIGHTCONE
    s.x = np.zeros(g.shape + (4,))
    _pts, ok = project_surface(s)  # x0 <= eps masked
    assert not ok.any()


def test_all_masked_raises(tmp_path):
    g, s = _plane_surface(5)
    s.mask[:] = False
    with pytest.raises(MeshExportError):
        export_mesh(s, tmp_path / "x.obj")


def test_triangulate_splits_shorter_diagonal():
    mask = np.ones((2, 2), dtype=bool)
    pts = np.zeros((2, 2, 3))
    pts[0, 0] = (0, 0, 0)
    pts[0, 1] = (1, 0, 0)
    pts[1, 1] = (1, 1, 5)   # lift one corner: diagonal b-d is shorter
    pts[1, 0] = (0, 1, 0)
    _idx, tris = triangulate(mask, pts)
    assert len(tris) == 2
    # row-major vertex ids: a=0, b=1, d=2, c=3; the split runs along b-d
    flat = {tuple(sorted(t)) for t in tris.tolist()}
    assert flat == {(1, 2, 3), (0, 1, 2)}


def test_csv_columns_and_rows(tmp_path):
    g = DomainGrid.square(1.0, 11)
    data = sample_data("z", "1", g)
    s = make_affine_surface(data, E0)
    rep = verify_surface(s)
    path = tmp_path / "c.csv"
    write_curvature_csv(s, rep, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:8] == ["u", "v", "re_z", "im_z", "x0", "x1", "x2", "x3"]
    assert "H" in header and "K" in header and "hyperplane" in header
    assert len(lines) == 1 + int(s.mask.sum())


def test_report_json_deterministic(tmp_path):
    g = DomainGrid.square(1.0, 11)
    data = sample_data("z", "1", g)
    s = make_affine_surface(data, E0)
    rep = verify_surface(s)
    write_report(rep, tmp_path / "r1.json")
    write_report(rep, tmp_path / "r2.json")
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


# ---------------------------------------------------------------------------
# byte pins: the sha256 of every writer's output on fixed surfaces.  The
# hashes were recorded with the per-node writers that preceded the array
# versions; they also pin the geometry, so a change to the builders that
# moves a single bit of a position moves them too.  The frame-built
# fixtures were re-recorded when frames moved to composed edge propagators
# (positions moved by at most 1.2e-14, derived curvature fields by 1.2e-12).
# The CSV pins were re-recorded when the Christoffel wedge moved to six
# bivector components (only christoffel_wedge moved, by at most 8.7e-19,
# under 4e-16 of its value).

def _tied_plane():
    # dyadic grid steps make both diagonals of every cell exactly equal
    g, s = _plane_surface(9)
    s.mask[3, 4] = False
    s.mask[6, 0] = False
    return s, verify_surface(s)


def _quadric(phi, omega, grid):
    s = make_quadric_surface(sample_data(phi, omega, grid), 1.0, -1.0)
    return s, verify_surface(s)


def _nonfinite_fields():
    s, rep = _quadric("z", "1", DomainGrid.square(1.0, 13))
    for name, val in (("H", np.inf), ("K", -np.inf), ("quadric", np.nan)):
        field = np.array(rep.fields[name], dtype=float)
        field[5, 4:7] = val
        rep.fields[name] = field
    rep.fields["mean_curvature"] = np.where(s.x[..., 1] > 0.2, -np.inf,
                                            rep.fields["mean_curvature"])
    return s, rep


GOLDEN_SURFACES = {
    # critical point of phi on a grid node: a masked band through the grid
    "quadric-critical": lambda: _quadric("z^2/2 - 0.5*z", "1 + 0.1*z^2",
                                         DomainGrid.square(1.0, 25)),
    # simple pole of omega on a grid node
    "quadric-pole": lambda: _quadric("z", "1 + 0.01/(z - 0.5)",
                                     DomainGrid.square(1.0, 21)),
    "plane-ties": _tied_plane,
    "quadric-nv-ne-nu": lambda: _quadric(
        "z", "1 + 0.1*z^2", DomainGrid(-1.0, 1.0, -0.6, 0.6, 17, 11, (5, 8))),
    "nonfinite-fields": _nonfinite_fields,
}

GOLDEN = {
    ('nonfinite-fields', 'csv'): '2d7f851d8f67396aa74a532db7cd2bce0fba85e4f0683b0ffca7c0b319b7f8aa',
    ('nonfinite-fields', 'obj'): 'b99422e9e1af7f8475e6f6a56026cb4a893c64953db8fdc0a41232b948f17d3c',
    ('nonfinite-fields', 'ply'): '4eb23aac69aad1d31ad4d215fa36eb6fa77255cf3ae5c240ecae06f2fb373299',
    ('plane-ties', 'csv'): 'f044bb0be5d70f52d4d5b28ec561d34ec6d1ef6273afc5f56f12f96062f8f900',
    ('plane-ties', 'obj'): '7c89701f82ed55eadf9a0d4c51fa2d5488b05220f9e412f6f3a20fce740271e4',
    ('plane-ties', 'ply'): 'f5ccb33c65e8f58692bcc51a12509883e060cf0e6a3d39a35db05b1aee0b4039',
    ('quadric-critical', 'csv'): 'adb738f8537f9a4c4f87d443d92fa9b0cf70456af4332334995cec1043462eca',
    ('quadric-critical', 'obj'): 'be47112deb7b8b04a29e45ff7d5307528b2a674c3430dcd7cd118b7db2816430',
    ('quadric-critical', 'ply'): 'f2648a6688724bac4ce1d0f8bb71e698fa39d1831fc122c2fffdd64740aabae6',
    ('quadric-nv-ne-nu', 'csv'): 'e25c92c7b51f93c59447fb59048a46c3afb8e34548c58c56124f70d2ed24ad7e',
    ('quadric-nv-ne-nu', 'obj'): 'ba06e7a74b7db410798799fa723b6dcc997452043e93c6b4982f1ec9b2bcfb62',
    ('quadric-nv-ne-nu', 'ply'): '1d8eb016c63c94556a2c86149382e507b6ef9390a376f35fc0b5af2e800532b9',
    ('quadric-pole', 'csv'): 'c7918b01477240e12c4c1ce5b1eae1f53ec3651af40a12d1771b69450d6b3525',
    ('quadric-pole', 'obj'): '87f1a8eff6cca861f932d5c7f8a0ebd79a26e2af48cd3be5fb208c6affd42969',
    ('quadric-pole', 'ply'): 'f5da4c78eed2ce5659018b8abd10838ad1811eeb08a37d491d61fe7a8a69a30a',
}


def _golden_bytes(tmp_path, name, fmt):
    s, rep = GOLDEN_SURFACES[name]()
    path = tmp_path / f"out.{fmt}"
    if fmt == "csv":
        write_curvature_csv(s, rep, path)
    else:
        export_mesh(s, path, mesh_format=fmt, quality=rep.fields.get("H"))
    return path.read_bytes()


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_writer_bytes_pinned(tmp_path, name, fmt):
    data = _golden_bytes(tmp_path, name, fmt)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[(name, fmt)]


@pytest.mark.parametrize("name", ["quadric-critical", "nonfinite-fields"])
def test_text_bytes_pinned_across_block_seams(tmp_path, monkeypatch, name):
    # every fixture fits in one ROW_BLOCK; small blocks and kernel chunks cross seams
    monkeypatch.setattr(meshout, "ROW_BLOCK", 7)
    monkeypatch.setattr(textfmt, "CHUNK", 5)
    for fmt in ("csv", "obj", "ply"):
        data = _golden_bytes(tmp_path, name, fmt)
        assert hashlib.sha256(data).hexdigest() == GOLDEN[(name, fmt)]


@pytest.mark.parametrize("row_block", [7, meshout.ROW_BLOCK])
@pytest.mark.parametrize("kind,alias", [("affine-e3", ("mean_curvature", "H")),
                                        ("quadric-lightcone", ("intrinsic_flatness", "K_int"))])
def test_a_field_under_two_names_prints_as_two_arrays_do(tmp_path, monkeypatch, row_block,
                                                         kind, alias):
    monkeypatch.setattr(meshout, "ROW_BLOCK", row_block)
    data = sample_data("z", "1 + 0.1*z^2", DomainGrid.square(0.5, 17))
    s = make_affine_surface(data, E0) if kind == "affine-e3" else make_quadric_surface(data, 1.0, 0.0)
    rep = verify_surface(s)
    assert rep.fields[alias[0]] is rep.fields[alias[1]]
    write_curvature_csv(s, rep, tmp_path / "one.csv")
    rep.fields[alias[0]] = rep.fields[alias[0]].copy()
    write_curvature_csv(s, rep, tmp_path / "two.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_a_grid_line_holding_both_signs_of_zero_prints_each_node(tmp_path):
    # re_max = -0.0: the last grid column's re_z is -0.0 below the real axis and
    # 0.0 on and above it, so that column cannot print from one slot per line
    g = DomainGrid(-1.0, -0.0, -0.5, 0.5, 5, 5, (2, 2))
    zs = g.zs()
    x = np.stack([np.zeros(g.shape), zs.real, zs.imag, np.zeros(g.shape)], axis=-1)
    s = SurfaceSample(grid=g, kind=GeometryKind.AFFINE_E3, x=x,
                      mask=np.ones(g.shape, dtype=bool), params={"p": (1.0, 0.0, 0.0, 0.0)})
    s.mask[0, 1] = False
    write_curvature_csv(s, verify_surface(s), tmp_path / "c.csv")
    rows = [line.split(",")[:4] for line in (tmp_path / "c.csv").read_text().splitlines()[1:]]
    want = [[str(iu), str(iv), repr(float(zs[iv, iu].real)), repr(float(zs[iv, iu].imag))]
            for iv, iu in zip(*np.nonzero(s.mask))]
    assert rows == want
    assert {r[2] for r in rows if r[0] == "4"} == {"-0.0", "0.0"}


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_export_mesh_adds_less_than_its_face_array(tmp_path, monkeypatch, fmt):
    # faces go out a block of grid rows at a time.  Small blocks and kernel chunks
    # keep the fixed working set small, so what shows is what grows with the mesh:
    # the projection (38 B per node), never the (faces, 3) int64 array (48 B per node)
    monkeypatch.setattr(meshout, "ROW_BLOCK", 256)
    monkeypatch.setattr(textfmt, "CHUNK", 256)
    s, rep = _quadric("z", "1 + 0.1*z^2", DomainGrid.square(1.0, 161))
    tracemalloc.start()
    try:
        _nverts, nfaces = export_mesh(s, tmp_path / f"m.{fmt}", mesh_format=fmt,
                                      quality=rep.fields["H"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nfaces > 50_000 and peak < nfaces * 3 * 8


def test_golden_fixtures_cover_the_cases():
    s, _ = GOLDEN_SURFACES["quadric-critical"]()
    assert 0 < int(s.mask.sum()) < s.mask.size
    s, _ = GOLDEN_SURFACES["plane-ties"]()
    pts, _ok = project_surface(s)
    ac = np.sum((pts[:-1, :-1] - pts[1:, 1:]) ** 2, axis=-1)
    bd = np.sum((pts[:-1, 1:] - pts[1:, :-1]) ** 2, axis=-1)
    assert np.array_equal(ac, bd)
    s, _ = GOLDEN_SURFACES["quadric-pole"]()
    assert not s.mask[15, 15]                  # z = 0.5 sits on a node
    s, _ = GOLDEN_SURFACES["quadric-nv-ne-nu"]()
    assert s.mask.shape == (11, 17)
    s, rep = GOLDEN_SURFACES["nonfinite-fields"]()
    on = s.mask
    assert np.isposinf(rep.fields["H"][on]).any()
    assert np.isneginf(rep.fields["K"][on]).any()
    assert np.isnan(rep.fields["quadric"][on]).any()


def _triangulate_per_cell(mask, points):
    """Reference: the per-cell loop the array version must reproduce."""
    nv, nu = mask.shape
    index = -np.ones((nv, nu), dtype=int)
    index[mask] = np.arange(int(mask.sum()))
    tris = []
    for iv in range(nv - 1):
        for iu in range(nu - 1):
            a, b, c, d = (iv, iu), (iv, iu + 1), (iv + 1, iu + 1), (iv + 1, iu)
            if not (mask[a] and mask[b] and mask[c] and mask[d]):
                continue
            if np.sum((points[a] - points[c]) ** 2) <= np.sum((points[b] - points[d]) ** 2):
                tris += [(index[a], index[b], index[c]), (index[a], index[c], index[d])]
            else:
                tris += [(index[b], index[c], index[d]), (index[b], index[d], index[a])]
    return index, np.asarray(tris, dtype=int).reshape(-1, 3)


@pytest.mark.parametrize("seed", range(6))
def test_triangulate_matches_per_cell_loop(seed):
    rng = np.random.default_rng(seed)
    nv, nu = rng.integers(2, 14, size=2)
    mask = rng.random((nv, nu)) < rng.uniform(0.5, 1.0)
    if seed % 2:
        points = rng.integers(-2, 3, size=(nv, nu, 3)).astype(float)  # many ties
    else:
        points = rng.normal(size=(nv, nu, 3))
    index, tris = triangulate(mask, points)
    want_index, want_tris = _triangulate_per_cell(mask, points)
    assert np.array_equal(index, want_index)
    assert tris.shape == want_tris.shape and tris.dtype == want_tris.dtype
    assert np.array_equal(tris, want_tris)
