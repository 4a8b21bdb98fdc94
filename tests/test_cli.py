import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import bundled, wide_gauge
from references import bundled_path

from fscat.category import gauge_transform
from fscat.specio import save_category

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env=None):
    """Run ``python -m fscat.cli`` with this checkout's ``src`` on the path."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "fscat.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def spec(name):
    return str(bundled_path(name))


def test_validate_good_spec():
    out = run_cli("validate", spec("fibonacci"))
    assert out.returncode == 0
    assert "valid" in out.stdout


def test_validate_truncated_file(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text(Path(spec("fibonacci")).read_text()[:100])
    out = run_cli("validate", str(bad))
    assert out.returncode == 2


def test_validate_missing_file():
    out = run_cli("validate", "/nonexistent/nowhere.json")
    assert out.returncode == 2


def test_validate_broken_pentagon(tmp_path):
    doc = json.loads(Path(spec("fibonacci")).read_text())
    for rec in doc["F"]:
        if (rec["e"], rec["f"]) == ("1", "1"):
            rec["value"]["c"] = ["-" + c if not c.startswith("-") else c[1:]
                                 for c in rec["value"]["c"]]
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(doc))
    out = run_cli("validate", str(bad))
    assert out.returncode == 1
    assert "pentagon" in out.stdout
    assert "5-tuple" in out.stdout


def test_ind_text_and_flags():
    out = run_cli("ind", spec("fibonacci"), "--object", "t", "--n", "1..4")
    assert out.returncode == 0
    assert "nu(2,1)" in out.stdout
    assert "E^n=id" in out.stdout


def test_ind_json_csv_agree_and_deterministic():
    args = ("ind", spec("vec_z2"), "--object", "g", "--n", "1..4", "--r", "1..2")
    js1 = run_cli(*args, "--format", "json")
    js2 = run_cli(*args, "--format", "json")
    assert js1.returncode == 0
    assert js1.stdout == js2.stdout  # byte-identical
    cs = run_cli(*args, "--format", "csv")
    assert cs.returncode == 0
    doc = json.loads(js1.stdout)
    assert doc["schema"] == 1
    json_cells = {(c["n"], c["r"]): c["value"] for c in doc["cells"]}
    csv_lines = cs.stdout.strip().splitlines()[1:]
    assert len(csv_lines) == len(json_cells)
    for line in csv_lines:
        n, r, value = line.split(",")[:3]
        enc = json_cells[(int(n), int(r))]
        want = f"{enc['N']}:" + ";".join(enc["c"])
        assert value == want


def test_ind_requires_derivable_pivotal(tmp_path):
    doc = json.loads(Path(spec("yang_lee")).read_text())
    del doc["pivotal"]
    bare = tmp_path / "yl.json"
    bare.write_text(json.dumps(doc))
    out = run_cli("ind", str(bare), "--object", "t", "--n", "1..2",
                  "--pivotal", "canonical")
    assert out.returncode == 1
    out = run_cli("ind", str(bare), "--object", "t", "--n", "1..2",
                  "--pivotal", "first")
    assert out.returncode == 0


def test_ind_names_a_refused_enumeration(tmp_path):
    # the wide gauge of vec_z3 is valid, but its pivotal relations need
    # cube roots of scalars that are no roots of unity, which the solver
    # refuses; ``ind`` reports that on one line instead of a traceback
    v3 = bundled("vec_z3")
    path = tmp_path / "wide.json"
    save_category(gauge_transform(v3, wide_gauge(v3)).with_pivotal(None), path)
    assert run_cli("validate", str(path)).returncode == 0
    out = run_cli("ind", str(path), "--object", "g", "--n", "2")
    assert out.returncode == 1
    assert out.stderr.startswith("error: pivotal data absent and not derivable: ")
    assert "non-root-of-unity" in out.stderr
    assert "Traceback" not in out.stderr


def test_ind_object_grammar_error():
    out = run_cli("ind", spec("fibonacci"), "--object", "zzz", "--n", "1..2")
    assert out.returncode == 1


def test_check_trivial_fast():
    out = run_cli("check", spec("trivial"), "--nmax", "4")
    assert out.returncode == 0
    assert "all checks pass" in out.stdout


def test_check_vec_z2():
    out = run_cli("check", spec("vec_z2"), "--nmax", "3")
    assert out.returncode == 0


def test_gauge_check():
    out = run_cli("gauge-check", spec("semion"), "--seed", "0", "--trials", "5")
    assert out.returncode == 0
    assert "PASS" in out.stdout


@pytest.mark.parametrize("choice", ["-1", "index -1", "7"])
def test_ind_refuses_a_pivotal_index_out_of_range(choice):
    out = run_cli("ind", spec("vec_z3"), "--object", "g", "--n", "1..2",
                  "--pivotal", choice)
    assert out.returncode == 1
    assert "pivotal index" in out.stderr and not out.stdout


@pytest.mark.parametrize("choice", ["-1", "7"])
def test_emit_refuses_a_pivotal_index_out_of_range(tmp_path, choice):
    target = tmp_path / "z3.json"
    out = run_cli("emit", "pointed", "--order", "3", "-o", str(target),
                  "--pivotal", choice)
    assert out.returncode == 1
    assert out.stderr.startswith("error: pivotal index")
    assert not out.stdout and not target.exists()


def test_emit_index_form_writes_the_same_spec(tmp_path):
    written = []
    for choice in ("index 1", "1"):
        target = tmp_path / f"z3_{len(written)}.json"
        out = run_cli("emit", "pointed", "--order", "3", "-o", str(target),
                      "--pivotal", choice)
        assert out.returncode == 0, out.stderr
        written.append(target.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("choice", ["index", "index x", "second", "1 2",
                                    "index1", ""])
def test_unknown_pivotal_forms_are_refused(tmp_path, choice):
    target = tmp_path / "z3.json"
    for args in (("ind", spec("vec_z3"), "--object", "g", "--n", "1..2"),
                 ("emit", "pointed", "--order", "3", "-o", str(target))):
        out = run_cli(*args, "--pivotal", choice)
        assert out.returncode == 1, args
        assert out.stderr.startswith("error: ")
        assert "canonical | first | K | index K" in out.stderr
        assert not out.stdout and not target.exists()


@pytest.mark.parametrize("args", [
    ("check", spec("trivial"), "--nmax", "0"),
    ("check", spec("trivial"), "--nmax", "-3"),
    ("gauge-check", spec("semion"), "--trials", "0"),
    ("gauge-check", spec("semion"), "--trials", "-5"),
])
def test_vacuous_runs_are_refused_at_parse_time(args):
    out = run_cli(*args)
    assert out.returncode == 2
    assert "is not a positive integer" in out.stderr and not out.stdout


@pytest.mark.parametrize("args, named", [
    (("pointed", "--order", "0"), "--order"),
    (("pointed", "--order", "-2"), "--order"),
    (("pointed", "--order", "3", "--conductor", "0"), "--conductor"),
    (("rank2", "--index", "5"), "index 5"),
    # yang_lee has no canonical structure, so take the first one
    (("rank2", "--index", "-1", "--pivotal", "first"), "index -1"),
])
def test_emit_refuses_bad_sizes(tmp_path, args, named):
    target = tmp_path / "out.json"
    out = run_cli("emit", *args, "-o", str(target))
    assert out.returncode != 0
    assert "Traceback" not in out.stderr
    errors = [line for line in out.stderr.splitlines() if "error: " in line]
    assert len(errors) == 1 and named in errors[0], out.stderr
    assert not out.stdout and not target.exists()


@pytest.mark.parametrize("args, named", [
    *((("ind", spec("fibonacci"), "--object", "t", "--n", text),
       f"bad range {text!r}")
      for text in ("3..", "..4", "a", "1..2..3", "1..x")),
    *((("emit", "ty", "--orders", text),
       f"bad entry {bad!r} in --orders {text!r}: need positive integers")
      for text, bad in (("2,x", "x"), ("", ""), ("2,,2", ""))),
])
def test_malformed_ranges_and_orders_are_named(tmp_path, args, named):
    target = tmp_path / "out.json"
    out = run_cli(*args, *(("-o", str(target)) if args[0] == "emit" else ()))
    assert out.returncode == 1
    assert out.stderr.splitlines() == [f"error: {named}"]
    assert not out.stdout and not target.exists()


def test_emit_families(tmp_path):
    target = tmp_path / "z3.json"
    out = run_cli("emit", "pointed", "--order", "3", "--level", "0",
                  "-o", str(target))
    assert out.returncode == 0
    check = run_cli("validate", str(target))
    assert check.returncode == 0

    target = tmp_path / "ty.json"
    out = run_cli("emit", "ty", "--orders", "2,2", "--sign", "-1",
                  "-o", str(target))
    assert out.returncode == 0
    assert run_cli("validate", str(target)).returncode == 0

    target = tmp_path / "yl.json"
    out = run_cli("emit", "rank2", "--index", "1", "--pivotal", "first",
                  "-o", str(target))
    assert out.returncode == 0
    assert run_cli("validate", str(target)).returncode == 0


def _fib_doc():
    return json.loads(Path(spec("fibonacci")).read_text())


# malformed spec documents, each a parse failure that names its field
MALFORMED = {
    "unit_list": (lambda d: d.update(unit=["1"]), "unit"),
    "dual_list": (lambda d: d["dual"].update(t=["t"]), "dual"),
    "fusion_row_list": (lambda d: d["fusion"][0].__setitem__(0, ["1"]),
                        "fusion"),
    "f_record_list": (lambda d: d["F"][0].update(a=["t"]), "F record"),
    "fusion_not_list": (lambda d: d.update(fusion=5), "fusion"),
    "encoded_c_int": (lambda d: d["F"][0]["value"].update(c=7), "'c'"),
    "conductor_true": (lambda d: d.update(conductor=True), "conductor"),
    "multiplicity_true": (lambda d: d["fusion"][0].__setitem__(3, True),
                          "fusion row"),
    # conductors far above what their coordinate lists can encode
    "f_conductor_2_40": (
        lambda d: d["F"][0].update(value={"N": 2 ** 40, "c": ["1"]}),
        "'N' = 1099511627776"),
    "pivotal_conductor_prime": (
        lambda d: d["pivotal"].update(t={"N": 2 ** 61 - 1, "c": ["1"]}),
        "pivotal value of 't'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_exits_2(tmp_path, case):
    mutate, field = MALFORMED[case]
    doc = _fib_doc()
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for args in (("validate", str(bad)),
                 ("ind", str(bad), "--object", "t", "--n", "2")):
        out = run_cli(*args)
        assert out.returncode == 2, (args[0], out.stderr)
        assert out.stderr.startswith("error: ") and field in out.stderr
        assert "Traceback" not in out.stderr


def test_pivotal_on_unknown_label_is_structural(tmp_path):
    doc = _fib_doc()
    doc["pivotal"]["q"] = {"N": 1, "c": ["1"]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = run_cli("validate", str(bad))
    assert out.returncode == 1
    assert "STRUCTURAL pivotal coefficient for unknown label 'q'" in out.stdout


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_malformed_dimension_guard(value):
    env = dict(os.environ)
    env["FSCAT_NMAX_GUARD"] = value
    out = run_cli("ind", spec("fibonacci"), "--object", "t", "--n", "2",
                  env=env)
    assert out.returncode == 1
    assert out.stderr == (f"error: FSCAT_NMAX_GUARD must be a positive "
                          f"integer, got {value!r}\n")


def test_dimension_guard_env(tmp_path):
    env = dict(os.environ)
    env["FSCAT_NMAX_GUARD"] = "1"
    out = run_cli("ind", spec("fibonacci"), "--object", "t", "--n", "5",
                  env=env)
    assert out.returncode == 1
    assert "FSCAT_NMAX_GUARD" in out.stderr
