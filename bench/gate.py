"""Correctness gate for the outputs of the benchmark's CLI runs.

The gate runs outside every timed region. Each output is checked

* against ``src/kerrcat/report.schema.json`` (JSON outputs),
* against physics that does not depend on the package (``oracle.py``), on
  every seed: branch probabilities and photon laws from closed forms,
  branch probabilities summing to 1 within the leakage and truncation
  budget, squeezed branches at tau = pi/2 being the matching parity cats,
  entanglement branches matching ``pair_plus``/``pair_minus``, and the
  circuit conserving the law of the total photon number,
* on the default seed only, against per-branch scalars recorded in
  ``reference.json`` from the commit that introduced the benchmark.

``check`` returns how many of the output's operations (sweep points, or
the single run) failed. ``python3 bench/gate.py --record`` rewrites
``reference.json`` from the current program.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np

import oracle
from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
SCHEMA_PATH = BENCH_DIR.parent / "src" / "kerrcat" / "report.schema.json"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Tolerances, fixed before any comparison was run. Closed forms are exact
# for the untruncated states; the reports truncate each source at leakage
# eps <= 1e-10 (sweeps, ent-large), which moves probabilities and entropies
# by ~1e-10 and photon laws and fidelities far less.
TOL_PROB = 1e-8
TOL_LAW = 1e-9
TOL_FIDELITY = 1e-9
TOL_ENTROPY = 1e-8
# Branches under the program's zero-branch threshold are dropped.
ZERO_BRANCH = 1e-12
# Reference scalars: loose enough for a fidelity renormalisation (~1e-10)
# and last-bit entropy changes, tight enough that any wrong branch fails.
REF_ATOL = 1e-8
REF_RTOL = 1e-8

CSV_COLUMNS = (
    "point", "r", "phi", "alpha_re", "alpha_im", "tau", "tau2", "theta",
    "branch", "probability", "pre_norm", "fidelity_plus", "fidelity_minus",
    "support_residual", "schmidt_entropy", "error",
)
BRANCHES = {"Db_fires": ({"b": 1, "c": 0}, -1), "Dc_fires": ({"b": 0, "c": 1}, +1)}


@dataclass
class Verdict:
    points: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed = min(self.points, self.failed + count)
        if len(self.problems) < 5:
            self.problems.append(message)


class _Mismatch(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise _Mismatch(message)


def _close(value, expected: float, tol: float, what: str) -> None:
    _expect(value is not None and abs(value - expected) <= tol,
            f"{what} = {value!r}, expected {expected!r} within {tol}")


# --- schema ------------------------------------------------------------------

class Schema:
    """``report.schema.json`` as a validator.

    Photon-number arrays are taken out before the jsonschema pass and their
    entries checked against the schema's ``probability`` rule directly:
    the same rule, at a fraction of jsonschema's per-item cost.
    """

    def __init__(self, path: Path = SCHEMA_PATH):
        schema = json.loads(path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft7Validator(schema)
        rule = schema["definitions"]["probability"]
        self._lo, self._hi = rule["minimum"], rule["maximum"]

    def errors(self, doc) -> list[str]:
        stripped = copy.deepcopy(doc)
        laws = []
        for branch in (stripped.get("branches") or {}).values():
            dists = (branch.get("analysis") or {}).get("distributions")
            if isinstance(dists, dict):
                for mode, law in dists.items():
                    laws.append(law)
                    dists[mode] = []
        found = [e.message for e in self._validator.iter_errors(stripped)]
        for law in laws:
            if not isinstance(law, list) or not all(
                type(x) in (int, float) and self._lo <= x <= self._hi for x in law
            ):
                found.append("a photon-number distribution breaks the probability rule")
        return found


# --- per-workload checks -----------------------------------------------------

def _grid(spec) -> np.ndarray:
    start, stop, steps = spec
    return np.linspace(start, stop, steps)


def _check_cutoff(r: float, cutoff: int, eps: float) -> np.ndarray:
    """The minimal squeezed cutoff for budget eps; returns the truncated law."""
    probs = oracle.squeezed_probs(r, cutoff)
    _expect(oracle.tail(probs) < eps * (1 + 1e-6), f"cutoff {cutoff} leaks over {eps}")
    if cutoff >= 2:
        _expect(oracle.tail(probs[:-2]) >= eps * (1 - 1e-6), f"cutoff {cutoff} is not minimal")
    return probs


def _check_branch_norm(branch: dict, name: str) -> None:
    prob, pre = branch["probability"], branch["pre_norm"]
    _expect(abs(pre * pre - prob) <= 1e-12 + 1e-9 * prob, f"{name}: pre_norm^2 != probability")


def _check_sup_point(work: Workload, index: int, rec: dict, r: float, tau: float) -> None:
    _expect(rec["point"] == index and rec["error"] is None, f"point {index}: {rec.get('error')}")
    _close(rec["params"]["r"], r, 1e-12, f"point {index} r")
    _close(rec["params"]["tau"], tau, 1e-12, f"point {index} tau")
    _close(rec["params"]["phi"], work.params["phi"], 0.0, f"point {index} phi")
    _expect(set(rec["branches"]) == set(BRANCHES), f"point {index}: branches {list(rec['branches'])}")
    expected = oracle.branch_probabilities(oracle.kerr_overlap(r, tau))
    total = 0.0
    for (name, (outcome, sign)), p_exp in zip(BRANCHES.items(), expected):
        branch = rec["branches"][name]
        what = f"point {index} {name}"
        _expect(branch["outcome"] == outcome, f"{what}: outcome {branch['outcome']}")
        _close(branch["probability"], p_exp, TOL_PROB, f"{what} probability")
        _check_branch_norm(branch, what)
        total += branch["probability"]
        analysis = branch["analysis"]
        if branch["probability"] == 0.0:
            _expect(analysis["distributions"] == {}, f"{what}: zero branch carries a state")
            continue
        law = analysis["distributions"]["a"]
        probs = _check_cutoff(r, len(law) - 1, work.params["epsilon"])
        expected_law = oracle.sweep_branch_distribution(probs, tau, sign)
        _expect(np.abs(np.array(law) - expected_law).max() <= TOL_LAW, f"{what}: photon law")
        if abs(tau - math.pi / 2) < 1e-12:
            cat = "odd_cat" if sign < 0 else "even_cat"
            _expect(analysis["fidelity_targets"][cat] >= 1 - TOL_FIDELITY, f"{what}: not the {cat}")
            _expect(analysis["support_residual"] <= TOL_LAW, f"{what}: off the cat support")
    _expect(1 - work.params["epsilon"] - 1e-12 <= total <= 1 + 1e-12, f"point {index}: sum {total}")


def _check_sup_sweep(work: Workload, text: str, verdict: Verdict) -> None:
    records = [json.loads(line) for line in text.splitlines()]
    _expect(len(records) == work.points, f"{len(records)} records for {work.points} points")
    schema = Schema()
    rs, taus = _grid(work.params["r"]), _grid(work.params["tau"])
    for index, rec in enumerate(records):
        r = float(rs[index // taus.size])
        try:
            errors = schema.errors(rec)
            _expect(not errors, f"point {index}: schema: {errors[:1]}")
            _check_sup_point(work, index, rec, r, float(taus[index % taus.size]))
        except (_Mismatch, KeyError, TypeError, ValueError) as err:
            verdict.fail(1, str(err))


def _check_pair(work: Workload, name: str, values: dict, r: float) -> None:
    """Entanglement branch scalars against the closed forms."""
    tau, tau2 = work.params["tau"], work.params["tau2"]
    _, sign = BRANCHES[name]
    ov_a, ov_a2 = oracle.kerr_overlap(r, tau), oracle.kerr_overlap(r, tau2)
    p_db, p_dc = oracle.branch_probabilities(ov_a * ov_a2)
    _close(values["probability"], p_db if sign < 0 else p_dc, TOL_PROB, f"{name} probability")
    target = "fidelity_minus" if sign < 0 else "fidelity_plus"
    _expect(values[target] >= 1 - TOL_FIDELITY, f"{name}: {target} = {values[target]}")
    _close(values["schmidt_entropy"], oracle.two_term_entropy(ov_a, ov_a2, sign),
           TOL_ENTROPY, f"{name} entropy")


def _check_ent_sweep(work: Workload, text: str, verdict: Verdict) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    _expect(rows and tuple(rows[0]) == CSV_COLUMNS, "CSV header differs")
    body = [dict(zip(CSV_COLUMNS, row)) for row in rows[1:]]
    _expect(len(body) == 2 * work.points, f"{len(body)} rows for {work.points} points")
    rs = _grid(work.params["r"])
    for index in range(work.points):
        pair = body[2 * index: 2 * index + 2]
        try:
            _expect([row["branch"] for row in pair] == list(BRANCHES), f"point {index}: branches")
            total = 0.0
            for row in pair:
                _expect(int(row["point"]) == index and row["error"] == "", f"point {index}: error")
                _close(float(row["r"]), float(rs[index]), 1e-12, f"point {index} r")
                values = {k: float(row[k]) for k in ("probability", "pre_norm", "fidelity_plus",
                                                     "fidelity_minus", "schmidt_entropy")}
                _check_branch_norm(values, f"point {index} {row['branch']}")
                _check_pair(work, row["branch"], values, float(rs[index]))
                total += values["probability"]
            _expect(1 - 2 * work.params["epsilon"] - 1e-12 <= total <= 1 + 1e-12,
                    f"point {index}: sum {total}")
        except (_Mismatch, KeyError, TypeError, ValueError) as err:
            verdict.fail(1, str(err))


def _check_ent_large(work: Workload, text: str, verdict: Verdict) -> None:
    doc = json.loads(text)
    errors = Schema().errors(doc)
    _expect(not errors, f"schema: {errors[:1]}")
    r, phi = work.params["r"], work.params["phi"]
    cutoffs = doc["config"]["cutoffs"]
    _expect(cutoffs["a"] == cutoffs["a2"] and cutoffs["b"] == cutoffs["c"] == 1, f"cutoffs {cutoffs}")
    _expect(doc["config"]["source"] == {"kind": "squeezed", "r": r, "phi": phi},
            f"source echo {doc['config']['source']}")
    probs = _check_cutoff(r, cutoffs["a"], work.params["epsilon"])
    _expect(set(doc["branches"]) == set(BRANCHES), f"branches {list(doc['branches'])}")
    total = 0.0
    for name, (outcome, sign) in BRANCHES.items():
        branch = doc["branches"][name]
        _expect(branch["outcome"] == outcome, f"{name}: outcome")
        _check_branch_norm(branch, name)
        analysis = branch["analysis"]
        targets = analysis["fidelity_targets"]
        _check_pair(work, name, {"probability": branch["probability"],
                                 "schmidt_entropy": analysis["schmidt_entropy"],
                                 "fidelity_plus": targets["pair_plus"],
                                 "fidelity_minus": targets["pair_minus"]}, r)
        for mode, tau, tau_other in (("a", work.params["tau"], work.params["tau2"]),
                                     ("a2", work.params["tau2"], work.params["tau"])):
            law = oracle.pair_marginal(probs, tau, probs, tau_other, sign)
            _expect(np.abs(np.array(analysis["distributions"][mode]) - law).max() <= TOL_LAW,
                    f"{name}: photon law of {mode}")
        total += branch["probability"]
    _expect(1 - 2 * work.params["epsilon"] - 1e-12 <= total <= 1 + 1e-12, f"sum {total}")


def _source_law(kind: str, magnitude: float, cutoff: int) -> np.ndarray:
    if kind == "squeezed":
        return oracle.squeezed_probs(magnitude, cutoff)
    return oracle.coherent_probs(magnitude ** 2, cutoff)


def _check_circuit(work: Workload, text: str, verdict: Verdict) -> None:
    doc = json.loads(text)
    errors = Schema().errors(doc)
    _expect(not errors, f"schema: {errors[:1]}")
    cutoff = work.params["cutoff"]
    labels = sorted(work.params["sources"])
    _expect(doc["config"]["cutoffs"] == {m: cutoff for m in labels}, "cutoffs differ")
    detected = work.params["detected"]
    (kept_mode,) = set(labels) - set(detected)
    tried = (cutoff + 1) ** len(detected)
    branches = doc["branches"]
    _expect(work.params["requested"] in branches, "requested outcome missing")
    total = 0.0
    out_law = np.zeros(cutoff + 1)
    for key, branch in branches.items():
        outcome = branch["outcome"]
        _expect(list(outcome) == list(detected)
                and key == " ".join(f"{m}={outcome[m]}" for m in detected), f"branch key {key}")
        _check_branch_norm(branch, key)
        prob = branch["probability"]
        if prob == 0.0:
            _expect(key == work.params["requested"], f"{key}: zero branch kept")
            continue
        _expect(prob >= ZERO_BRANCH, f"{key}: probability {prob} under the zero threshold")
        law = np.array(branch["analysis"]["distributions"][kept_mode])
        _expect(law.size == cutoff + 1 and abs(law.sum() - 1) <= TOL_LAW, f"{key}: not normalized")
        shift = sum(outcome.values())
        if shift <= cutoff:
            out_law[shift:] += prob * law[: cutoff + 1 - shift]
        total += prob
    # Every element conserves the total photon number N; truncation only
    # loses mass on N > cutoff (source cutoffs, and beam-splitter blocks whose
    # pair total exceeds the cutoff, which it can only do when N does).
    laws = [_source_law(kind, mag, cutoff) for kind, mag, _ in work.params["sources"].values()]
    in_law = oracle.total_photon_law(laws, cutoff)
    dropped = (tried - len(branches) + 1) * ZERO_BRANCH
    _expect(np.abs(out_law - in_law).max() <= TOL_LAW + dropped, "total photon law not conserved")
    over = oracle.tail(in_law)
    _expect(1 - 3 * over - dropped - TOL_LAW <= total <= 1 + TOL_LAW, f"probability sum {total}")


_CHECKS = {
    "sup-sweep": _check_sup_sweep,
    "ent-sweep": _check_ent_sweep,
    "ent-large": _check_ent_large,
    "circuit-3mode": _check_circuit,
}


# --- reference scalars -------------------------------------------------------

# Sweeps keep every REF_STRIDE-th point; 7 is coprime with the 5 tau values,
# so every tau of sup-sweep is represented.
REF_STRIDE = 7


def _mean(law) -> float:
    return float(np.dot(np.arange(len(law)), law))


def reference_rows(work: Workload, text: str) -> dict[str, list[float]]:
    """Compact per-branch scalars of one output, keyed ``<point>/<branch>``.

    Probability, fidelities, Schmidt entropy and the mean photon number of
    each remaining mode; pre_norm and the photon laws are covered by the
    physics checks.
    """
    if work.output == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return {f"{row['point']}/{row['branch']}": [
            float(row[k]) for k in ("probability", "fidelity_plus", "fidelity_minus",
                                    "schmidt_entropy")]
            for row in rows if int(row["point"]) % REF_STRIDE == 0}
    docs = [json.loads(line) for line in text.splitlines()] if work.output == "jsonl" \
        else [json.loads(text)]
    out = {}
    for doc in docs:
        point = doc.get("point", 0)
        if point % REF_STRIDE:
            continue
        for name, branch in doc["branches"].items():
            analysis = branch["analysis"]
            row = [branch["probability"]]
            row += [v for _, v in sorted(analysis["fidelity_targets"].items())]
            if analysis["schmidt_entropy"] is not None:
                row.append(analysis["schmidt_entropy"])
            row += [_mean(law) for _, law in sorted(analysis["distributions"].items())]
            out[f"{point}/{name}"] = row
    return out


def _compare_reference(work: Workload, text: str, reference: dict, verdict: Verdict) -> None:
    got = reference_rows(work, text)
    if set(got) != set(reference):
        verdict.fail(work.points, f"reference: branch sets differ ({len(got)} vs {len(reference)})")
        return
    bad_points = set()
    for key, ref in reference.items():
        row = got[key]
        ok = len(row) == len(ref) and all(
            abs(x - y) <= REF_ATOL + REF_RTOL * abs(y) for x, y in zip(row, ref))
        if not ok:
            bad_points.add(key.split("/")[0])
            if len(verdict.problems) < 5:
                verdict.problems.append(f"reference: {key} = {row} vs {ref}")
    if bad_points:
        verdict.failed = min(work.points, verdict.failed + len(bad_points))


def load_reference(name: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))[name]


def check(work: Workload, text: str) -> Verdict:
    """Gate one output; a malformed output fails every operation."""
    verdict = Verdict(work.points)
    try:
        _CHECKS[work.name](work, text, verdict)
    except (_Mismatch, KeyError, TypeError, ValueError, IndexError) as err:
        verdict.fail(work.points, f"{type(err).__name__}: {err}")
        return verdict
    if work.seed == DEFAULT_SEED and not work.tiny:
        _compare_reference(work, text, load_reference(work.name), verdict)
    return verdict


def main() -> None:
    parser = argparse.ArgumentParser(description="Record reference.json from the current program.")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args()
    import tempfile

    import workloads
    from run import WORK_ROOT, run_cli

    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for name in WORKLOADS:
            work = workloads.make(name, DEFAULT_SEED, Path(tmp))
            sample = run_cli(work, Path(tmp) / "out")
            text = sample.output_path.read_text(encoding="utf-8")
            verdict = Verdict(work.points)
            _CHECKS[name](work, text, verdict)
            if sample.returncode != 0 or verdict.failed:
                raise SystemExit(f"{name}: output fails the physics checks: {verdict.problems}")
            # ten significant digits: far inside REF_ATOL / REF_RTOL
            reference[name] = {key: [float(f"{x:.10g}") for x in row]
                               for key, row in reference_rows(work, text).items()}
    blocks = [json.dumps(name) + ": {\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(row)}" for key, row in rows.items()) + "\n}"
        for name, rows in reference.items()]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
