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
touches the bytes.  Each distinct value prints once: the CSV's grid
columns come from one table slot per grid line, a field held under two
names prints once per row, and the OBJ vertex numbers print once per face
block.  The faces are made and written a block of cell rows at a time and
the CSV gathers its columns ROW_BLOCK rows at a time, so memory stays
bounded.  The bytes match a per-node loop (tests pin them).
"""

from __future__ import annotations

import json

import numpy as np

from .surfaces import GeometryKind, SurfaceSample
from .textfmt import table, write_rows

POLE_EPS = 1e-9
ROW_BLOCK = 8192    # CSV rows or mesh nodes per block: bounds the memory the writers hold


def _proj_euclid_123(x):     # take, not x[..., (1, 2, 3)]: the points stay C-ordered
    return x.take((1, 2, 3), axis=-1), np.ones(x.shape[:-1], dtype=bool)


def _proj_lorentz_120(x):
    return x.take((1, 2, 0), axis=-1), np.ones(x.shape[:-1], dtype=bool)


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


def _cells(mask):
    """The grid cells whose four corners are all valid, (nv - 1, nu - 1)."""
    return mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, 1:] & mask[1:, :-1]


def _valid(values, mask):
    """values at the valid nodes, row-major, moved to the front of values' own buffer
    a block at a time: no second whole-grid array.  values must be the caller's own."""
    flat, keep = values.reshape(mask.size, -1), mask.ravel()
    n = 0
    for r in range(0, len(keep), ROW_BLOCK):
        block = flat[r:r + ROW_BLOCK].compress(keep[r:r + ROW_BLOCK], axis=0)
        flat[n:n + len(block)] = block      # n <= r: a block only moves forward
        n += len(block)
    return flat[:n].reshape((n,) + values.shape[2:])


_SPLIT = np.array([0, 1, 2, 0, 2, 3])   # two triangles from corners a, b, c, d


def _face_blocks(mask, verts, cell):
    """The triangles of triangulate, max(1, ROW_BLOCK // nu) cell rows at a time.

    verts are the valid nodes' points, row-major.  Each block numbers its nodes
    from the mask's running row counts, and each cell takes its corners from a
    (a-c split) or from b (b-d split).
    """
    nv, nu = mask.shape
    corner = np.array([0, 1, nu + 1, nu])    # a=(iv, iu), b=(iv, iu+1), c=(iv+1, iu+1), d=(iv+1, iu)
    step, before = max(1, ROW_BLOCK // nu), 0
    for r in range(0, nv - 1, step):
        number = np.cumsum(mask[r:r + step + 1].ravel()) + (before - 1)
        before += np.count_nonzero(mask[r:r + step])
        iv, iu = np.nonzero(cell[r:r + step])
        at = iv * nu + iu
        a, b, c, d = (verts.take(number[at + k], axis=0) for k in corner)
        with np.errstate(over="ignore"):    # huge points give inf, and a tie goes to a-c
            ac, bd = (a - c) ** 2, (b - d) ** 2
        # summed in component order, so ties fall exactly as in a per-cell sum
        split_bd = ~((ac[:, 0] + ac[:, 1] + ac[:, 2]) <= (bd[:, 0] + bd[:, 1] + bd[:, 2]))
        yield number[at[:, None] + corner[(_SPLIT + split_bd[:, None]) % 4]].reshape(-1, 3)


def triangulate(mask, points):
    """Triangles over valid grid cells, split along the shorter diagonal.

    mask/points are (nv, nu)[, 3]; returns (vertex_index_map, triangles)
    where triangles index into the row-major enumeration of valid nodes.
    Cells come in row-major order, two triangles each; a tie goes to the
    a-c diagonal.  export_mesh streams the same triangles in blocks.
    """
    index = -np.ones(mask.shape, dtype=int)
    index[mask] = np.arange(int(mask.sum()))
    blocks = _face_blocks(mask, np.asarray(points)[mask], _cells(mask))
    return index, np.concatenate([np.empty((0, 3), dtype=int), *blocks])


class MeshExportError(RuntimeError):
    """Nothing meshable: every node is masked or unprojectable."""


def export_mesh(surface: SurfaceSample, path, *, projection="default",
                mesh_format="obj", quality=None):
    """Write the projected surface as OBJ (ascii) or PLY (binary LE).

    quality is an optional per-node scalar channel (|H| in the pipeline);
    PLY carries it per vertex, OBJ ignores it.  The faces go out a block of
    grid rows at a time; no face array is ever whole.  Returns
    (vertex_count, face_count).
    """
    pts, ok = project_surface(surface, projection)
    mask = surface.mask & ok
    if not np.any(mask):
        raise MeshExportError("no unmasked projectable nodes to mesh")
    cell = _cells(mask)
    verts, nfaces = _valid(pts, mask), 2 * int(np.count_nonzero(cell))
    faces = _face_blocks(mask, verts, cell)
    if mesh_format == "obj":
        _write_obj(path, verts, faces)
    elif mesh_format == "ply":
        qual = np.zeros(mask.shape) if quality is None else np.abs(quality, dtype=float)
        qual[~np.isfinite(qual)] = 0.0
        _write_ply(path, verts, faces, nfaces, _valid(qual, mask))
    else:
        raise ValueError(f"unknown mesh format {mesh_format!r}")
    return len(verts), nfaces


def _write_obj(path, verts, faces):
    with open(path, "wb") as fh:
        write_rows(fh, b"v ", b" ", verts)
        for tris in faces:
            if len(tris):       # each block prints its vertex numbers once, 1-based
                lo = tris.min()
                write_rows(fh, b"f ", b" ", (table(np.arange(lo + 1, tris.max() + 2), b" "),
                                             tris - lo))


def _write_ply(path, verts, faces, nfaces, qual):
    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {len(verts)}\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "property double quality\n"
        f"element face {nfaces}\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for r in range(0, len(verts), ROW_BLOCK):
            block = verts[r:r + ROW_BLOCK]
            vertex = np.empty((len(block), 4), dtype="<f8")
            vertex[:, :3] = block
            vertex[:, 3] = qual[r:r + ROW_BLOCK]
            fh.write(vertex.tobytes())
        for tris in faces:
            face = np.empty(len(tris), dtype=[("n", "u1"), ("i", "<i4", 3)])
            face["n"] = 3
            face["i"] = tris
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
    zs, xs = grid.zs(), surface.x.reshape(-1, 4)
    node = np.flatnonzero(surface.mask)
    iv, iu = np.divmod(node, grid.nu)
    # u, v, re_z and im_z hold one value per grid column or row: each prints once
    lines = [(table(np.arange(grid.nu), b","), iu), (table(np.arange(grid.nv), b","), iv),
             _line_table(zs.real, 0, iu, node), _line_table(zs.imag, 1, iv, node)]
    fields = {id(field): field for _name, field in named}   # two names, one array: printed once
    with open(path, "wb") as fh:
        fh.write((",".join(cols) + "\n").encode("ascii"))
        for start in range(0, len(node), ROW_BLOCK):
            rows = slice(start, start + ROW_BLOCK)
            vals = {key: np.asarray(np.take(field, node[rows]), dtype=float)
                    for key, field in fields.items()}
            vals = {key: np.where(np.isfinite(v), v, np.nan) for key, v in vals.items()}
            write_rows(fh, b"", b",", *[(slots, at[rows]) for slots, at in lines],
                       xs.take(node[rows], axis=0), *[vals[id(field)] for _name, field in named])


def _line_table(values, axis, line, node):
    """(table, index) of a grid field's CSV column at the flat node indices: one slot
    per line along axis when each such line holds one value bit for bit, else one
    per node (the sign of a zero can vary along a line)."""
    first = values.take([0], axis=axis)
    if (values.view(np.int64) == first.view(np.int64)).all():
        return table(first.ravel(), b","), line
    return table(values.ravel(), b","), node


def write_report(report, path, extra=None):
    """Serialize a verification report as deterministic JSON."""
    doc = report.to_dict()
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
