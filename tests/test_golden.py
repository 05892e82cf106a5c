"""Golden corpus: CLI outputs compared with outputs committed in ``golden/``.

Every case, protocol runs, sweeps and circuit files alike, must match byte
for byte. Cases run from inside ``golden/``, so a circuit report echoes its
relative path. None of the cases uses ``--trace``. Every recorded JSON report
and JSON-lines record must also pass the package's ``report.schema.json``.
Report bits are reproducible at a fixed BLAS thread count: the goldens were
recorded with one thread (``OPENBLAS_NUM_THREADS=1``), as CI runs them.

Rewrite the expected files, from the repository root, with
``PYTHONPATH=src python tests/test_golden.py``. Before it replaces a file,
it prints how many of the file's numbers change and the largest absolute
change.
"""

import cmath
import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest

import kerrcat
from kerrcat import cli
from kerrcat.checks import _pair_entropy_oracle
from kerrcat.protocols import DB, DC

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMA = json.loads(
    (Path(kerrcat.__file__).resolve().parent / "report.schema.json").read_text(encoding="utf-8")
)
CASES = {
    "superposition-squeezed.json": ["run", "--protocol", "superposition", "--r", "0.4"],
    "superposition-coherent.json": [
        "run", "--protocol", "superposition", "--source", "coherent",
        "--alpha-re", "1.2", "--alpha-im", "0.3", "--tau", "pi", "--theta", "0.3",
    ],
    "entanglement-squeezed.json": [
        "run", "--protocol", "entanglement", "--r", "0.3", "--phi", "pi/4",
        "--tau2", "pi/3", "--theta", "0.2",
    ],
    "entanglement-coherent.json": [
        "run", "--protocol", "entanglement", "--source", "coherent", "--alpha-re", "0.8",
    ],
    # squeezed sources: tau = tau2 = pi leaves Db_fires at probability zero
    "sweep-entanglement.jsonl": [
        "sweep", "--protocol", "entanglement", "--sweep", "tau:pi/2:pi:2", "--sweep", "tau2:pi/2:pi:2",
    ],
    "sweep-entanglement.csv": [
        "sweep", "--protocol", "entanglement", "--sweep", "tau:pi/2:pi:2", "--sweep", "tau2:pi/2:pi:2",
        "--format", "csv",
    ],
    "lazy-joins.json": ["run", "--circuit", "lazy-joins.qcirc", "--epsilon", "1e-4"],
    # a coherent and a squeezed arm, each at the Kerr phase of its opposite state
    "entanglement-mixed.json": ["run", "--circuit", "entanglement-mixed.qcirc", "--epsilon", "1e-12"],
    # two groups of six points that share their source; tau = theta = 0
    # leaves Db_fires at probability zero inside a group
    "sweep-superposition.jsonl": [
        "sweep", "--protocol", "superposition", "--sweep", "r:0.3:0.6:2", "--sweep", "tau:0:pi:3",
        "--sweep", "theta:0:pi/2:2",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli.render_output(CASES[name]) == expected


JSON_CASES = sorted(n for n in CASES if n.endswith((".json", ".jsonl")))


@pytest.mark.parametrize("name", JSON_CASES)
def test_recorded_reports_match_the_schema(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".jsonl"):
        records = [json.loads(line) for line in text.splitlines()]
    else:
        records = [json.loads(text)]
    for record in records:
        jsonschema.validate(record, SCHEMA)


def test_mixed_pair_matches_the_two_state_oracles():
    # each click leaves R|u>R'|v> -+ |u>|v>, whose probability and entropy
    # follow from the overlaps su = <Ru|u> and sv = <R'v|v>. The mixed pair
    # rotates alpha = 1 to -alpha and r = 0.8 to -xi: <-alpha|alpha> =
    # exp(-2 |alpha|^2) and <-xi|xi> = 1 / (cosh r sqrt(1 + tanh^2 r)). The
    # coherent pair rotates alpha = 0.8 to -i alpha on each arm:
    # <-i alpha|alpha> = exp(-alpha^2 + i alpha^2).
    mixed = (math.exp(-2.0), 1.0 / (math.cosh(0.8) * math.sqrt(1.0 + math.tanh(0.8) ** 2)))
    cases = (("entanglement-mixed.json", mixed, ("b=1 c=0", "b=0 c=1")),
             ("entanglement-coherent.json", (cmath.exp(-0.64 + 0.64j),) * 2, (DB, DC)))
    for name, (su, sv), keys in cases:
        report = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        for key, sign, theta in zip(keys, (-1, 1), (0.0, math.pi)):
            branch = report["branches"][key]
            assert abs(branch["probability"] - (1 + sign * (su * sv).real) / 2) <= 1e-9, name
            entropy = _pair_entropy_oracle(su, sv, theta)
            assert abs(branch["analysis"]["schmidt_entropy"] - entropy) <= 1e-9, name


def _leaves(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def numbers(name: str, text: str) -> list[float]:
    """Every number in the recorded file ``name``, in order."""
    if name.endswith(".csv"):
        numeric = []
        for cell in (c for row in csv.reader(io.StringIO(text)) for c in row):
            try:
                numeric.append(float(cell))
            except ValueError:
                pass
        return numeric
    lines = text.splitlines() if name.endswith(".jsonl") else [text]
    leaves = _leaves([json.loads(line) for line in lines])
    return [v for v in leaves if isinstance(v, (int, float)) and not isinstance(v, bool)]


def moved(name: str, old: str, new: str) -> str:
    """How the numbers of ``name`` change from ``old`` to ``new``."""
    before, after = numbers(name, old), numbers(name, new)
    if len(before) != len(after):
        return f"{name}: {len(after)} numbers, was {len(before)}"
    changes = [abs(a - b) for a, b in zip(after, before) if a != b]
    return (f"{name}: {len(changes)} of {len(after)} numbers differ, "
            f"largest absolute difference {max(changes, default=0.0):.3e}")


if __name__ == "__main__":
    import os

    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        text = cli.render_output(argv)
        print(moved(name, Path(name).read_text(encoding="utf-8"), text))
        Path(name).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {GOLDEN / name}")
