"""Byte-for-byte pins of `fscat ind` json and csv output, of its rotation
matrix dump and of the `fscat check` theorem suite.

The files in ``tests/golden/`` hold the exact stdout of one indicator table
per bundled spec, covering conductors 1, 3, 4, 5, 8 and 12, of one
``--dump`` run (the rendered rotation matrices of every word, then the
table), and of ``fscat check --nmax 4`` on every bundled spec and on one
non-spherical pivotal structure (``vec_z3`` with structure 1,
t(g) = zeta_3^(+-1)).  Any
change to the field kernel, the encoding, the float embedding or the suite
that alters a single byte of the output fails here.  To rebuild the pins
after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import pathlib
import tempfile

import pytest

from fscat.cli import main
from fscat.pivotal import attach_pivotal
from fscat.specio import BUNDLED, load_bundled, save_category
from references import bundled_path

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


def run_main(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue().encode("utf-8")


def run_ind(spec: str, fmt: str) -> bytes:
    obj, extra = CASES[spec]
    return run_main(["ind", str(bundled_path(spec)), "--object", obj,
                     "--n", "1..4", *extra, "--format", fmt])


# the dump pin: every rendered rotation matrix of fibonacci's t up to n = 3
DUMP = ("fibonacci", "t", "1..3")
DUMP_FILE = GOLDEN / "ind_dump_fibonacci.txt"


def run_dump() -> bytes:
    spec, obj, n = DUMP
    return run_main(["ind", str(bundled_path(spec)), "--object", obj,
                     "--n", n, "--dump"])


# the non-spherical pin: vec_z3 with its enumerated pivotal structure 1
NON_SPHERICAL = ("vec_z3", 1)


def check_file(name: str) -> pathlib.Path:
    return GOLDEN / f"check_{name}.txt"


def run_check(spec_path) -> bytes:
    return run_main(["check", str(spec_path), "--nmax", "4"])


def write_non_spherical(directory) -> pathlib.Path:
    spec, index = NON_SPHERICAL
    path = pathlib.Path(directory) / f"{spec}_pivotal{index}.json"
    save_category(attach_pivotal(load_bundled(spec), index), path)
    return path


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("spec", sorted(CASES))
def test_ind_output_matches_golden_bytes(spec, fmt):
    assert run_ind(spec, fmt) == golden_file(spec, fmt).read_bytes()


def test_ind_dump_matches_golden_bytes():
    assert run_dump() == DUMP_FILE.read_bytes()


@pytest.mark.parametrize("spec", BUNDLED)
def test_check_output_matches_golden_bytes(spec):
    assert run_check(bundled_path(spec)) == check_file(spec).read_bytes()


def test_non_spherical_check_output_matches_golden_bytes(tmp_path):
    path = write_non_spherical(tmp_path)
    assert run_check(path) == check_file(path.stem).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        for fmt in FORMATS:
            golden_file(name, fmt).write_bytes(run_ind(name, fmt))
            print(f"wrote {golden_file(name, fmt).name}")
    DUMP_FILE.write_bytes(run_dump())
    print(f"wrote {DUMP_FILE.name}")
    for name in BUNDLED:
        check_file(name).write_bytes(run_check(bundled_path(name)))
        print(f"wrote {check_file(name).name}")
    with tempfile.TemporaryDirectory() as tmp:
        path = write_non_spherical(tmp)
        check_file(path.stem).write_bytes(run_check(path))
        print(f"wrote {check_file(path.stem).name}")
