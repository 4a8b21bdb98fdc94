"""Category spec files: strict JSON schema, loading, saving, bundled data.

Format (UTF-8 JSON): name, conductor, simples (label list), unit, dual
(label -> label), fusion (rows [a, b, c, N] with N >= 1 only), F (records
{a, b, c, d, e, f, value}; omitted admissible entries default to 1, and
that default is part of the format), pivotal (optional label -> value).
Scalars are encoded as {"N": conductor, "c": ["p/q", ...]} with rationals
in lowest terms.  Unknown fields are rejected anywhere in the document.
"""

from __future__ import annotations

import json
from importlib import resources

from .category import Category, FSymbolSet, FusionRing, PivotalData
from .cyclo import Cyc


class SpecFormatError(ValueError):
    """Malformed spec file content."""


_TOP_KEYS = {"name", "conductor", "simples", "unit", "dual", "fusion", "F",
             "pivotal"}
_F_KEYS = {"a", "b", "c", "d", "e", "f", "value"}


def category_to_dict(cat: Category) -> dict:
    fusion = [[a, b, c, n] for (a, b, c), n in sorted(
        cat.ring.N.items(), key=lambda kv: tuple(cat.label_index(x) for x in kv[0]))]
    frecs = []
    for key in sorted(cat.F.entries,
                      key=lambda k: tuple(cat.label_index(x) for x in k)):
        a, b, c, d, e, f = key
        frecs.append({"a": a, "b": b, "c": c, "d": d, "e": e, "f": f,
                      "value": cat.F.entries[key].encode()})
    out = {
        "name": cat.name,
        "conductor": cat.conductor,
        "simples": list(cat.labels),
        "unit": cat.unit,
        "dual": {a: cat.dual(a) for a in cat.labels},
        "fusion": fusion,
        "F": frecs,
    }
    if cat.pivotal is not None:
        out["pivotal"] = {a: cat.pivotal.t[a].encode() for a in cat.labels}
    return out


def _is_count(value) -> bool:
    """An integer that is not a JSON boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def _labels(field, *values):
    """Raise SpecFormatError naming `field` unless every value is a string."""
    for x in values:
        if not isinstance(x, str):
            raise SpecFormatError(
                f"{field}: expected a label string, got {x!r}")


def category_from_dict(data) -> Category:
    if not isinstance(data, dict):
        raise SpecFormatError("top level must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SpecFormatError(f"unknown top-level fields: {sorted(unknown)}")
    for key in _TOP_KEYS - {"pivotal"}:
        if key not in data:
            raise SpecFormatError(f"missing field {key!r}")
    name = data["name"]
    conductor = data["conductor"]
    if not isinstance(name, str):
        raise SpecFormatError("name must be a string")
    if not _is_count(conductor) or conductor < 1:
        raise SpecFormatError("conductor must be a positive integer")
    simples = data["simples"]
    if not isinstance(simples, list) or \
            any(not isinstance(x, str) for x in simples):
        raise SpecFormatError("simples must be a list of label strings")
    _labels("unit", data["unit"])
    dual = data["dual"]
    if not isinstance(dual, dict):
        raise SpecFormatError("dual must be a mapping")
    _labels("dual", *dual.values())
    for key in ("fusion", "F"):
        if not isinstance(data[key], list):
            raise SpecFormatError(f"{key} must be a list")
    fusion = {}
    for row in data["fusion"]:
        if not (isinstance(row, list) and len(row) == 4 and
                _is_count(row[3])):
            raise SpecFormatError(f"bad fusion row {row!r}")
        _labels("fusion rows", *row[:3])
        if row[3] < 1:
            raise SpecFormatError(f"fusion rows carry N >= 1 only: {row!r}")
        key = (row[0], row[1], row[2])
        if key in fusion:
            raise SpecFormatError(f"duplicate fusion row for {key}")
        fusion[key] = row[3]
    entries = {}
    for rec in data["F"]:
        if not isinstance(rec, dict):
            raise SpecFormatError(f"bad F record {rec!r}")
        unknown = set(rec) - _F_KEYS
        if unknown:
            raise SpecFormatError(f"unknown F-record fields: {sorted(unknown)}")
        if set(rec) != _F_KEYS:
            raise SpecFormatError(f"incomplete F record {rec!r}")
        key = (rec["a"], rec["b"], rec["c"], rec["d"], rec["e"], rec["f"])
        _labels("F records", *key)
        if key in entries:
            raise SpecFormatError(f"duplicate F record for {key}")
        try:
            entries[key] = Cyc.decode(rec["value"])
        except ValueError as exc:
            raise SpecFormatError(f"F record {key}: {exc}") from None
    pivotal = None
    if "pivotal" in data:
        if not isinstance(data["pivotal"], dict):
            raise SpecFormatError("pivotal must be a mapping")
        t = {}
        for a, value in data["pivotal"].items():
            try:
                t[a] = Cyc.decode(value)
            except ValueError as exc:
                raise SpecFormatError(
                    f"pivotal value of {a!r}: {exc}") from None
        pivotal = PivotalData(t)
    ring = FusionRing(simples, data["unit"], dual, fusion)
    return Category(name, ring, FSymbolSet(entries), pivotal, conductor)


def load_category(path) -> Category:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}") from None
    return category_from_dict(data)


def save_category(cat: Category, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(category_to_dict(cat), fh, indent=1, sort_keys=True)
        fh.write("\n")


BUNDLED = (
    "trivial",
    "vec_z2",
    "semion",
    "vec_z3",
    "fibonacci",
    "yang_lee",
    "ising",
    "ty_z2z2_plus",
    "ty_z2z2_minus",
    "rep_s3",
)


def bundled_names():
    return BUNDLED


def bundled_text(name: str) -> str:
    if name not in BUNDLED:
        raise KeyError(f"no bundled spec named {name!r}")
    return resources.files("fscat").joinpath(f"specs/{name}.json").read_text()


def load_bundled(name: str) -> Category:
    return category_from_dict(json.loads(bundled_text(name)))


def bundled_path(name: str):
    if name not in BUNDLED:
        raise KeyError(f"no bundled spec named {name!r}")
    return resources.files("fscat").joinpath(f"specs/{name}.json")
