"""The bundled spec files are exactly what their generator writes."""

import importlib.util
import pathlib

import fscat

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPECS = pathlib.Path(fscat.__file__).resolve().parent / "specs"


def load_generator():
    path = ROOT / "tools" / "generate_bundled_specs.py"
    spec = importlib.util.spec_from_file_location("generate_bundled_specs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_specs_regenerate_byte_for_byte(tmp_path):
    load_generator().main(tmp_path)
    names = sorted(p.name for p in SPECS.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (SPECS / name).read_bytes(), name
