"""The bundled spec files are exactly what their generator writes."""

import importlib.util
import pathlib
import subprocess
import sys

import fscat

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPECS = pathlib.Path(fscat.__file__).resolve().parent / "specs"


def load_generator():
    path = ROOT / "tools" / "generate_bundled_specs.py"
    spec = importlib.util.spec_from_file_location("generate_bundled_specs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_same_specs(out_dir):
    names = sorted(p.name for p in SPECS.glob("*.json"))
    assert len(names) == 10
    assert sorted(p.name for p in out_dir.glob("*.json")) == names
    for name in names:
        assert (out_dir / name).read_bytes() == (SPECS / name).read_bytes(), name


def test_bundled_specs_regenerate_byte_for_byte(tmp_path):
    load_generator().main(tmp_path)
    assert_same_specs(tmp_path)


def test_generator_command_reproduces_the_bundled_specs(tmp_path):
    # the documented command, run from another directory on a fresh
    # interpreter: it finds the sources itself and writes OUT_DIR only
    out = tmp_path / "specs"
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "generate_bundled_specs.py"),
         str(out)], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert_same_specs(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["specs"]
