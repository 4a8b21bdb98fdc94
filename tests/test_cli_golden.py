"""Byte-for-byte pins of `fscat ind` json and csv output.

The files in ``tests/golden/`` hold the exact stdout of one indicator table
per bundled spec, covering conductors 1, 3, 4, 5, 8 and 12.  Any change to
the field kernel, the encoding or the float embedding that alters a single
byte of the output fails here.  To rebuild the pins after an intended
output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import pathlib

import pytest

from fscat.cli import main
from fscat.specio import bundled_path

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# spec -> (object, extra arguments); one non-unit simple wherever there is one
CASES = {
    "trivial": ("1", ()),
    "vec_z2": ("g", ()),
    "semion": ("g", ()),
    "vec_z3": ("g", ()),
    "fibonacci": ("t", ()),
    "yang_lee": ("t", ()),
    "ising": ("sigma", ()),
    "ty_z2z2_plus": ("sigma", ()),
    "ty_z2z2_minus": ("sigma", ()),
    "rep_s3": ("sigma", ("--r", "1..4")),
}
FORMATS = ("json", "csv")


def golden_file(spec: str, fmt: str) -> pathlib.Path:
    return GOLDEN / f"ind_{spec}.{fmt}"


def run_ind(spec: str, fmt: str) -> bytes:
    obj, extra = CASES[spec]
    argv = ["ind", str(bundled_path(spec)), "--object", obj, "--n", "1..4",
            *extra, "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (spec, fmt, code)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("spec", sorted(CASES))
def test_ind_output_matches_golden_bytes(spec, fmt):
    assert run_ind(spec, fmt) == golden_file(spec, fmt).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        for fmt in FORMATS:
            golden_file(name, fmt).write_bytes(run_ind(name, fmt))
            print(f"wrote {golden_file(name, fmt).name}")
