"""Mesh, CSV and report emission.

Grid quadrilaterals are triangulated along their shorter projected
diagonal; any cell touching a masked or unprojectable node drops out.
OBJ is ASCII (1-based indices), PLY is binary little-endian with float64
coordinates and a per-vertex quality channel carrying |H|.  All writers
are deterministic: vertex order is row-major, floats are printed as repr()
prints them, and no timestamps or environment state enter the output.
The OBJ and CSV text comes from the vectorized kernel in textfmt (shortest
round-trip digits, byte-equal to repr; subnormals go through repr itself),
which writes it a chunk at a time in binary mode, so no newline translation
touches the bytes.  The OBJ writer hands textfmt whole arrays; the CSV
writer gathers its columns ROW_BLOCK rows at a time, so memory stays
bounded.  The bytes match a per-node loop (tests pin them).
"""

from __future__ import annotations

import json

import numpy as np

from .surfaces import GeometryKind, SurfaceSample
from .textfmt import write_rows

POLE_EPS = 1e-9
ROW_BLOCK = 8192    # CSV rows gathered per block: bounds the memory the CSV writer holds


def _proj_euclid_123(x):
    return x[..., (1, 2, 3)], np.ones(x.shape[:-1], dtype=bool)


def _proj_lorentz_120(x):
    return x[..., (1, 2, 0)], np.ones(x.shape[:-1], dtype=bool)


def _proj_isotropic(x):
    out = np.stack([x[..., 1], x[..., 2], 0.5 * (x[..., 0] - x[..., 3])], axis=-1)
    return out, np.ones(x.shape[:-1], dtype=bool)


def _proj_poincare(x):
    den = 1.0 + x[..., 0]
    ok = np.abs(den) > POLE_EPS
    with np.errstate(all="ignore"):
        out = x[..., 1:4] / den[..., None]
    return out, ok


def _proj_desitter(x):
    den = 1.0 + x[..., 3]
    ok = np.abs(den) > POLE_EPS
    with np.errstate(all="ignore"):
        out = x[..., 0:3] / den[..., None]
    return out, ok


def _proj_lightcone(x):
    den = x[..., 0]
    ok = den > POLE_EPS
    with np.errstate(all="ignore"):
        out = x[..., 1:4] / den[..., None]
    return out, ok


PROJECTIONS = {
    "euclid-123": _proj_euclid_123,
    "lorentz-120": _proj_lorentz_120,
    "isotropic-slice": _proj_isotropic,
    "poincare-ball": _proj_poincare,
    "desitter-stereo": _proj_desitter,
    "lightcone-slice": _proj_lightcone,
}

DEFAULT_PROJECTION = {
    GeometryKind.AFFINE_E3: "euclid-123",
    GeometryKind.AFFINE_L3: "lorentz-120",
    GeometryKind.AFFINE_ISOTROPIC: "isotropic-slice",
    GeometryKind.QUADRIC_H3: "poincare-ball",
    GeometryKind.QUADRIC_DESITTER: "desitter-stereo",
    GeometryKind.QUADRIC_LIGHTCONE: "lightcone-slice",
    GeometryKind.LW_BRYANT: "poincare-ball",
}


def project_surface(surface: SurfaceSample, model="default"):
    """3D chart of the 4D positions: (points, ok) with per-node validity."""
    if model in (None, "default"):
        model = DEFAULT_PROJECTION[surface.kind]
    try:
        fn = PROJECTIONS[model]
    except KeyError:
        raise ValueError(f"unknown projection model {model!r}") from None
    pts, ok = fn(surface.x)
    return pts, ok & np.isfinite(pts).all(axis=-1)


def triangulate(mask, points):
    """Triangles over valid grid cells, split along the shorter diagonal.

    mask/points are (nv, nu)[, 3]; returns (vertex_index_map, triangles)
    where triangles index into the row-major enumeration of valid nodes.
    Cells come in row-major order, two triangles each; a tie goes to the
    a-c diagonal.
    """
    nv, nu = mask.shape
    index = -np.ones((nv, nu), dtype=int)
    index[mask] = np.arange(int(mask.sum()))
    # corners a=(iv, iu), b=(iv, iu+1), c=(iv+1, iu+1), d=(iv+1, iu)
    cell = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, 1:] & mask[1:, :-1]
    a, b, c, d = (index[:-1, :-1][cell], index[:-1, 1:][cell],
                  index[1:, 1:][cell], index[1:, :-1][cell])
    pts = np.asarray(points)
    with np.errstate(over="ignore"):    # huge points give inf, and a tie goes to a-c
        ac = (pts[:-1, :-1][cell] - pts[1:, 1:][cell]) ** 2
        bd = (pts[:-1, 1:][cell] - pts[1:, :-1][cell]) ** 2
    # summed in component order, so ties fall exactly as in a per-cell sum
    split_ac = (ac[:, 0] + ac[:, 1] + ac[:, 2]) <= (bd[:, 0] + bd[:, 1] + bd[:, 2])
    tris = np.where(split_ac[:, None], np.stack([a, b, c, a, c, d], axis=1),
                    np.stack([b, c, d, b, d, a], axis=1))
    return index, tris.reshape(-1, 3)


class MeshExportError(RuntimeError):
    """Nothing meshable: every node is masked or unprojectable."""


def export_mesh(surface: SurfaceSample, path, *, projection="default",
                mesh_format="obj", quality=None):
    """Write the projected surface as OBJ (ascii) or PLY (binary LE).

    quality is an optional per-node scalar channel (|H| in the pipeline);
    PLY carries it per vertex, OBJ ignores it.  Returns (vertex_count,
    face_count).
    """
    pts, ok = project_surface(surface, projection)
    mask = surface.mask & ok
    if not np.any(mask):
        raise MeshExportError("no unmasked projectable nodes to mesh")
    index, tris = triangulate(mask, pts)
    verts = pts[mask]
    if quality is None:
        qual = np.zeros(len(verts))
    else:
        qual = np.abs(np.asarray(quality)[mask])
        qual = np.where(np.isfinite(qual), qual, 0.0)

    if mesh_format == "obj":
        _write_obj(path, verts, tris)
    elif mesh_format == "ply":
        _write_ply(path, verts, tris, qual)
    else:
        raise ValueError(f"unknown mesh format {mesh_format!r}")
    return len(verts), len(tris)


def _write_obj(path, verts, tris):
    with open(path, "wb") as fh:
        write_rows(fh, b"v ", b" ", floats=verts)
        write_rows(fh, b"f ", b" ", ints=tris, int_offset=1)


def _write_ply(path, verts, tris, qual):
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(verts)}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "property double quality\n"
        f"element face {len(tris)}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    vertex = np.empty((len(verts), 4), dtype="<f8")
    vertex[:, :3] = verts
    vertex[:, 3] = qual
    face = np.empty(len(tris), dtype=[("n", "u1"), ("i", "<i4", 3)])
    face["n"] = 3
    face["i"] = tris
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(vertex.tobytes())
        fh.write(face.tobytes())


def write_curvature_csv(surface: SurfaceSample, report, path):
    """Per-vertex CSV: u, v, re_z, im_z, x0..x3, H, K, then residual columns.

    Rows are the unmasked nodes, row-major; non-finite H, K and residuals print nan.
    """
    grid = surface.grid
    nanfield = np.full(grid.shape, np.nan)
    named = [("H", report.fields.get("H", nanfield)),
             ("K", report.fields.get("K", nanfield))]
    if "K_int" in report.fields:
        named.append(("K_int", report.fields["K_int"]))
    for key in sorted(report.stats):
        named.append((key, report.fields[key]))
    cols = ["u", "v", "re_z", "im_z", "x0", "x1", "x2", "x3"]
    cols += [name for name, _ in named]
    zs = grid.zs()
    iv, iu = np.nonzero(surface.mask)
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode("ascii"))
        for start in range(0, len(iv), ROW_BLOCK):
            node = iv[start:start + ROW_BLOCK], iu[start:start + ROW_BLOCK]
            vals = [np.asarray(field[node], dtype=float) for _name, field in named]
            floats = np.column_stack([zs[node].real, zs[node].imag, surface.x[node]]
                                     + [np.where(np.isfinite(v), v, np.nan) for v in vals])
            write_rows(fh, b"", b",", ints=np.column_stack(node[::-1]), floats=floats)


def write_report(report, path, extra=None):
    """Serialize a verification report as deterministic JSON."""
    doc = report.to_dict()
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
