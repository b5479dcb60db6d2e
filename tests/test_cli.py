import json
import os
import subprocess
import sys

import pytest

import cubicdescent
from cubicdescent import errors as E
from cubicdescent.cli import EXIT_CODES, exit_code_for, run_pipeline
from cubicdescent.errors import CubicDescentError
from cubicdescent.intfactor import primes_up_to
from cubicdescent.serialize import emit_cubic, emit_dp4

SPLIT_CONFIG = {
    # p = (T-1)(T-2)(T-3)(T-4)(T-5), idempotent linear form: the quadrics
    # come out diagonal and carry small points
    "p": ["-120/1", "274/1", "-225/1", "85/1", "-15/1", "1/1"],
    "l": None,      # filled in by _split_config()
    "height": 20,
    "primes": {"count": 6, "bound": 100},
}


def _split_config():
    from cubicdescent.etale import EtaleAlgebra
    from oracles import split_idempotents
    from cubicdescent.serialize import frac_to_str
    from cubicdescent.unipoly import UniPoly

    roots = [1, 2, 3, 4, 5]
    algebra = EtaleAlgebra(UniPoly.from_roots(roots))
    idem = split_idempotents(algebra, roots)
    cfg = dict(SPLIT_CONFIG)
    cfg["l"] = [[frac_to_str(c) for c in e.coords()] for e in idem]
    return cfg


def _run(args, stdin=None):
    # the child imports the package this process imported, also when it
    # was found through pytest's pythonpath setting rather than PYTHONPATH
    src = os.path.dirname(os.path.dirname(cubicdescent.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "cubicdescent.cli", *args],
                          input=stdin, capture_output=True, text=True, env=env)


def test_exit_code_table_total():
    # every concrete error class in errors.py maps to exactly one code
    classes = [obj for name, obj in vars(E).items()
               if isinstance(obj, type) and issubclass(obj, CubicDescentError)
               and obj is not CubicDescentError]
    for cls in classes:
        code = exit_code_for(cls("boom"))
        assert 2 <= code <= 10
    assert len(set(EXIT_CODES.values())) >= 8


def test_pipeline_split_end_to_end(tmp_path):
    report = run_pipeline(_split_config())
    assert report["search"]["count"] > 0
    assert report["smooth_cubic"] is True
    assert report["smooth_cubic_path"] == "conic-bundle"
    assert report["smooth_dp4"] is True
    assert report["tritangents"]["square_product_class"] == 1
    assert report["frobenius"]["subgroup_order"] is not None
    # every prime up to the last sampled one is either sampled or skipped
    frob = report["frobenius"]
    skipped = {s["prime"]: s["reason"] for s in frob["skipped"]}
    assert not set(skipped) & set(frob["primes"])
    assert sorted([*skipped, *frob["primes"]]) == \
        primes_up_to(frob["primes"][-1])
    assert skipped[3] == "3 is not a good prime for this input"
    assert set(report["timings"]) >= {"descend_ms", "search_ms",
                                      "blowup_reduce_ms", "smoothness_ms"}
    # diagonal oracle end to end: five rational tritangent roots
    roots = [e for e in report["tritangents"]["entries"] if "root" in e]
    assert len(roots) == 5


def test_pipeline_validation_errors():
    with pytest.raises(E.InvalidConfigError):
        run_pipeline({"p": ["-120/1", "274/1", "-225/1", "85/1", "-15/1", "1/1"]})
    with pytest.raises(E.SchemaError):
        run_pipeline({"p": [], "height": 5, "junk": 1})
    with pytest.raises(E.NotEtaleError):
        run_pipeline({"p": ["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"],
                      "height": 5})


def test_cli_subprocess_pipeline_no_points():
    cfg = {"p": ["-120/1", "274/1", "-225/1", "85/1", "-15/1", "1/1"],
           "height": 3}
    proc = _run(["pipeline", "-i", "-"], stdin=json.dumps(cfg))
    assert proc.returncode == 8
    err = json.loads(proc.stderr)
    assert err["error"] == "NoRationalPointError"
    # the partial report of the finished stages still reaches stdout
    report = json.loads(proc.stdout)
    assert report["schema"] == "run-report@1"
    assert set(report["timings"]) == {"descend_ms", "search_ms"}
    assert report["search"]["count"] == 0
    assert "dp4" in report and "radicands" in report
    assert "chosen_point" not in report


def test_cli_subprocess_non_squarefree_p():
    cfg = {"p": ["0/1", "0/1", "0/1", "0/1", "0/1", "1/1"], "height": 3}
    proc = _run(["pipeline", "-i", "-"], stdin=json.dumps(cfg))
    assert proc.returncode == 3


def test_cli_verify_and_search(paper_cubic, paper_dp4, tmp_path):
    cubic_path = tmp_path / "cubic.json"
    cubic_path.write_text(json.dumps(emit_cubic(paper_cubic)))
    proc = _run(["verify", "-i", str(cubic_path)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["smooth"] is True

    dp4_path = tmp_path / "dp4.json"
    dp4_path.write_text(json.dumps(emit_dp4(paper_dp4)))
    out_path = tmp_path / "points.json"
    proc = _run(["search-points", "-i", str(dp4_path), "--height", "8",
                 "-o", str(out_path)])
    assert proc.returncode == 0
    res = json.loads(out_path.read_text())
    assert res["schema"] == "search-result@1"
    # streamed JSON lines match the result file
    streamed = [json.loads(line) for line in proc.stdout.splitlines() if line]
    assert streamed == res["points"]

    # the search runs in one process; the old process-count option is gone
    proc = _run(["search-points", "-i", str(dp4_path), "--height", "8",
                 "--workers", "2"])
    assert proc.returncode == 2 and not proc.stdout
    assert "unrecognized arguments: --workers 2" in proc.stderr


def test_cli_convert_roundtrip(paper_dp4, tmp_path):
    dp4_path = tmp_path / "dp4.json"
    dp4_path.write_text(json.dumps(emit_dp4(paper_dp4)))
    proc = _run(["convert", "--to-cubic", "--point", "[8,-13,4,2,-3]",
                 "-i", str(dp4_path)])
    assert proc.returncode == 0
    cubic = json.loads(proc.stdout)
    assert cubic["schema"] == "cubic@1"
    assert "line" in cubic

    cubic_path = tmp_path / "cubic.json"
    cubic_path.write_text(json.dumps(cubic))
    proc2 = _run(["convert", "--to-dp4", "-i", str(cubic_path)])
    assert proc2.returncode == 0
    assert json.loads(proc2.stdout)["schema"] == "dp4@1"


def test_cli_bad_point_exit_code(paper_dp4, tmp_path):
    dp4_path = tmp_path / "dp4.json"
    dp4_path.write_text(json.dumps(emit_dp4(paper_dp4)))
    proc = _run(["convert", "--to-cubic", "--point", "[1,0,0,0,0]",
                 "-i", str(dp4_path)])
    assert proc.returncode == 5


def test_cli_tritangents_uncertified_class_exit_code(tmp_path):
    # the member at (0 : 1) of this pencil is p0 x0^2 + p1 x1^2 + x2^2 +
    # x3^2 for the first two primes above 10^20: its complement
    # determinant is p0 p1, which Pollard rho cannot split within its step
    # cap, so the square class stays uncertified and the run exits 10
    from cubicdescent.descent import DP4Surface
    from cubicdescent.forms import QuadForm
    from cubicdescent.intfactor import is_probable_prime

    primes = [10 ** 20 + 39, 10 ** 20 + 129]
    assert all(map(is_probable_prime, primes))
    v = DP4Surface(QuadForm.diagonal([1] * 5),
                   QuadForm.diagonal(primes + [1, 1, 0]))
    path = tmp_path / "dp4.json"
    path.write_text(json.dumps(emit_dp4(v)))
    r = _run(["tritangents", "-i", str(path)])
    assert r.returncode == 10 and r.stdout == ""
    record = json.loads(r.stderr)
    assert record["error"] == "BudgetExceededError"
    assert record["exit_code"] == 10


@pytest.mark.parametrize("height", ["0", "-3"])
def test_cli_search_points_height_below_one(paper_dp4, tmp_path, height):
    dp4_path = tmp_path / "dp4.json"
    dp4_path.write_text(json.dumps(emit_dp4(paper_dp4)))
    proc = _run(["search-points", "-i", str(dp4_path), "-H", height])
    assert proc.returncode == 2 and not proc.stdout
    record = json.loads(proc.stderr)
    assert record["error"] == "InvalidConfigError"
    assert record["exit_code"] == 2
    assert "height must be positive" in record["message"]


def test_cli_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope@9"}))
    proc = _run(["verify", "-i", str(bad)])
    assert proc.returncode == 2


def test_cli_descent_input_or_config(tmp_path):
    # descend and frobenius read a descent-input@1 document and the config
    # it comes from alike; any other document is read as a config
    from cubicdescent.cli import _descent_input_from_config, main
    from cubicdescent.serialize import emit_descent_input

    cfg = {k: v for k, v in _split_config().items() if k in ("p", "l")}
    doc = emit_descent_input(_descent_input_from_config(cfg))
    outputs = {}
    for name, data in (("config", cfg), ("document", doc)):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(data))
        for cmd, extra in (("descend", []),
                           ("frobenius", ["--primes", "4", "--bound", "60"])):
            out = tmp_path / f"{name}-{cmd}.json"
            assert main([cmd, "-i", str(src), "-o", str(out), *extra]) == 0
            outputs[name, cmd] = json.loads(out.read_text())
    for cmd in ("descend", "frobenius"):
        assert outputs["config", cmd] == outputs["document", cmd]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**doc, "schema": "descent-input@2"}))
    assert main(["descend", "-i", str(bad)]) == 2


def test_cli_frobenius_without_primes(tmp_path):
    # no sampled prime: the document carries no group, as when none is found
    from cubicdescent.cli import main

    src = tmp_path / "paper.json"
    src.write_text(json.dumps(
        {"p": ["-900/1", "1134/1", "-288/1", "-51/1", "10/1", "1/1"]}))
    for extra in (["--primes", "0"], ["--bound", "6"]):
        out = tmp_path / "frobenius.json"
        assert main(["frobenius", "-i", str(src), "-o", str(out), *extra]) == 0
        doc = json.loads(out.read_text())
        assert doc["samples"] == 0 and doc["primes"] == []
        assert doc["subgroup_order"] is None and doc["orbit_lengths"] is None


@pytest.mark.parametrize("doc", [
    # a line with one point
    {"schema": "line@1", "points": [[1, 0, 0, 0]]},
    # a quadric whose size is not an integer
    {"schema": "quadric@1", "n": "x", "upper": ["1/1"] * 15},
    # point entries that are not integers
    {"schema": "line@1", "points": [[1, 0, 0, "a"], [0, 1, 0, 0]]},
    {"schema": "line@1", "points": [[1, 0, 0, 1.5], [0, 1, 0, 0]]},
    # well formed, but neither a cubic nor a pair of quadrics
    {"schema": "line@1", "points": [[1, 0, 0, 0], [0, 1, 0, 0]]},
])
def test_cli_verify_malformed_document_exit_code(doc, tmp_path):
    from cubicdescent.cli import main

    src = tmp_path / "doc.json"
    src.write_text(json.dumps(doc))
    assert main(["verify", "-i", str(src)]) == 2


@pytest.mark.parametrize("point", ["abc", "[1, 2, 3]", "5"])
def test_cli_convert_malformed_point_exit_code(point, paper_dp4, tmp_path):
    from cubicdescent.cli import main

    src = tmp_path / "dp4.json"
    src.write_text(json.dumps(emit_dp4(paper_dp4)))
    assert main(["convert", "--to-cubic", "--point", point,
                 "-i", str(src)]) == 2


@pytest.mark.parametrize("field", [{"height": "abc"},
                                   {"height": 5, "primes": {"count": "x"}},
                                   {"height": 5, "primes": 7},
                                   {"height": 4.5},
                                   {"height": True},
                                   {"height": 5, "primes": {"count": 2.5}},
                                   {"height": 5, "primes": {"cont": 6}}])
def test_cli_pipeline_malformed_config_exit_code(field, tmp_path):
    from cubicdescent.cli import main

    src = tmp_path / "config.json"
    src.write_text(json.dumps({"p": SPLIT_CONFIG["p"], **field}))
    assert main(["pipeline", "-i", str(src)]) == 2


def test_cli_verify_names_the_smoothness_path(paper_cubic, paper_dp4,
                                              tmp_path):
    # a cubic with its line goes through the conic bundle, one without it
    # through the Macaulay rank; a dp4 verdict has one path and no key
    from cubicdescent.cli import main

    without_line = emit_cubic(paper_cubic.F)
    outputs = {}
    for name, doc in (("line", emit_cubic(paper_cubic)),
                      ("bare", without_line), ("dp4", emit_dp4(paper_dp4))):
        src, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
        src.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(src), "-o", str(out)]) == 0
        outputs[name] = json.loads(out.read_text())
    assert outputs == {
        "line": {"surface": "cubic", "smooth": True,
                 "smooth_path": "conic-bundle"},
        "bare": {"surface": "cubic", "smooth": True,
                 "smooth_path": "macaulay-mod-p"},
        "dp4": {"surface": "dp4", "smooth": True}}
