"""Golden sha256 digests of the field export bytes.

Every other field test compares the writers with a reference computed on
the same interpreter, so a change in CPython's float formatting or
arithmetic that moved both sides would pass unseen.  These digests are
literals, computed with the row writer that preceded the present
mirrored-row rule, so they do not come from the code they check, and
they must hold on every supported Python (3.10 to 3.13).  A digest
changes only with a stated contract change.

Run alone with ``python -m pytest tests/test_export_digests.py``;
``digests(tmp_path)`` recomputes the table for a stated contract change.
"""

import hashlib

import pytest

from msetsim.fields import FieldExpr, GridSpec, field
from msetsim.io import HeatmapRange, write_field_csv, write_pgm

GRIDS = [
    GridSpec(-2.0, 2.0, -2.0, 2.0, 61, 61),        # symmetric: rows mirror
    GridSpec(-1.3, 2.9, -0.7, 3.1, 41, 61),        # asymmetric
    GridSpec(-1e-310, 1e-310, -1e-310, 1e-310, 9, 9),  # subnormal
]

SURFACES = [(e, None) for e in FieldExpr if e is not FieldExpr.JR_POW] + [
    (FieldExpr.JR_POW, 3), (FieldExpr.JR_POW, 4)]


def surface_name(expr: FieldExpr, d: int | None) -> str:
    return expr.value if d is None else f"{expr.value}{d}"


def export_digests(tmp_path, expr: FieldExpr, d: int | None) -> tuple[str, str]:
    """sha256 of the field CSVs, and of the PGMs over [-1, 1], of the surface
    on each of :data:`GRIDS` in turn."""
    csv_hash, pgm_hash = hashlib.sha256(), hashlib.sha256()
    out, pgm = tmp_path / "f.csv", tmp_path / "f.pgm"
    for spec in GRIDS:
        fld = field(expr, spec, d)
        write_field_csv(fld, out)
        write_pgm(fld, HeatmapRange(-1.0, 1.0), pgm)
        csv_hash.update(out.read_bytes())
        pgm_hash.update(pgm.read_bytes())
    return csv_hash.hexdigest(), pgm_hash.hexdigest()


def digests(tmp_path) -> dict[str, tuple[str, str]]:
    return {surface_name(e, d): export_digests(tmp_path, e, d) for e, d in SURFACES}


# (CSV digest, PGM digest) per surface
DIGESTS = {
    "a1": (
        "6ad69ec751af2f79b3e88ed9340001ff26b55ef98d4f6e7bd6eeec73a4c15e9d",
        "cbc5c51a007f321a06f6b6a1fc39d09bbbfbba1c0bb4542cfd43cb0d5ffc9ab1"),
    "a2": (
        "55be5b3849d5554e6ad05292c3f243f053bdab3cc34790e4b62383699f412cbd",
        "9920e0bbd0a372a8485627e7b2c961908827ce54575d8932a389354048c39eaf"),
    "a3": (
        "a577f3e126a866ef1bcf219ea3ca2e2962e04a52a826d2aedb641575aa378dd0",
        "f12e930edcec62df8b4941247578f2a0f57d9aa8aefb030af932bf522b6e8b8e"),
    "a4": (
        "c238905a611f403d07e8dbf5809140eb3535e37a29df702b1ad600e90cf07cb7",
        "24546121e13b9dbbfe2b8eafe5898d6240e34bf4119054fcd252455220ab3eb6"),
    "a5": (
        "ec9411796abd85429e4df0b77d870c2a10086dcc6d6cbbc56378e3b1f3319bca",
        "ea45623f1ea0129f3d6e1b5e62a0dabcbb12d7ce42a3094b4d8c1fa0f8ab3e04"),
    "jr": (
        "819121fcf97eb3563d6edb66487bb3b81c5f108b5bfedd7f9cdea0ccdb4865b8",
        "a92aaff5c876ab6aed2024e86187400493313b003779a3a7469fdbf074d3bec9"),
    "kron": (
        "b2bb6cb3e036b66fbd0eec6ba04e531e575f89da828c83f569c6fcccf11941ba",
        "5f7487259c3d47f020ec53cdc8f653c97b11f3f62d9457d004c682d4135273fa"),
    "jrpow3": (
        "efc0f9efff2e91d900bc33277f4485fd48eaf5d1a9ffed7275920b0ca616ab9c",
        "7ee59492b830aa4525cb1218c4b1d1c41086094776b21c48f43a1a9669df6a25"),
    "jrpow4": (
        "9b9800b62f55a4244ac5389e44c8c6b54009a92cc8bec459fcc1035b0265b8ab",
        "c0e4f569b6da22e006705f354afcf672a21e749924424073f7276f5b66dc6441"),
}


@pytest.mark.parametrize("expr, d", SURFACES, ids=lambda v: str(getattr(v, "value", v)))
def test_export_bytes_match_golden_digests(tmp_path, expr, d):
    assert export_digests(tmp_path, expr, d) == DIGESTS[surface_name(expr, d)]
