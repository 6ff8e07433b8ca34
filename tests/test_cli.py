"""Command-line behavior: formats, exit codes, report determinism."""

import ast
import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _helpers import StubPool, random_poly_from, transportable_jets
from jetcalc.claims import run_claim
from jetcalc.cli import main
from jetcalc.exprio import print_text
from jetcalc.hierarchies import gen_qiao
from jetcalc.transform import build_map


def test_gen_latex_matches_notation(capsys):
    assert main(["gen", "--system", "ch", "--n", "2", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("E_CH0:")
    assert r"\Omega^{(1)}_{XXX}" in lines[1]


def test_gen_cbs_count(capsys):
    assert main(["gen", "--system", "cbs", "--n", "3", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 2


def test_gen_rejects_n_zero(capsys):
    assert main(["gen", "--system", "ch", "--n", "0"]) == 2


def test_gen_json_is_valid(capsys):
    assert main(["gen", "--system", "miura", "--n", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    labels = [entry["label"] for entry in payload]
    assert "MIURA" in labels and "HEIGHTS" in labels


def test_verify_report_bytes_are_pinned(tmp_path):
    # the n-max 4 report of seed 0, the same bytes under CPython 3.10 to 3.13;
    # a speed-up of any layer must leave it unchanged
    report = tmp_path / "report.json"
    assert main(["verify", "--claim", "all", "--n-max", "4", "--jobs", "1",
                 "--report", str(report)]) == 0
    assert hashlib.md5(report.read_bytes()).hexdigest() == "922e541a1b1bc90655be9cab56a935ea"


def test_default_verify_starts_no_process_pool(monkeypatch, tmp_path):
    # --jobs defaults to 1: at this n-max a pool costs more to start than it
    # saves, and the report bytes are those of --jobs 1
    monkeypatch.setattr(StubPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubPool)
    report = tmp_path / "report.json"
    assert main(["verify", "--claim", "all", "--n-max", "4", "--report", str(report)]) == 0
    assert StubPool.made == []
    assert hashlib.md5(report.read_bytes()).hexdigest() == "922e541a1b1bc90655be9cab56a935ea"


def test_verify_report_bytes_are_pinned_on_two_workers(tmp_path):
    # each pool worker shares the objects of one size among its own cells
    report = tmp_path / "report.json"
    assert main(["verify", "--claim", "all", "--n-max", "4", "--jobs", "2",
                 "--report", str(report)]) == 0
    assert hashlib.md5(report.read_bytes()).hexdigest() == "922e541a1b1bc90655be9cab56a935ea"


def _other_cpythons():
    """bin/python3 of each CPython >= 3.10 under $PYENV_ROOT/versions other
    than the running one, called by path: pyenv's version shims need not
    resolve."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for path in sorted(root.glob("*/bin/python3")):
        parts = path.parent.parent.name.split(".")
        if len(parts) == 3 and all(part.isdigit() for part in parts):
            version = tuple(map(int, parts))
            if version >= (3, 10) and version != sys.version_info[:3]:
                found.append(path)
    return found


def test_verify_report_bytes_are_pinned_under_every_other_cpython(tmp_path):
    interpreters = _other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 under $PYENV_ROOT/versions")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    procs = []
    for python in interpreters:
        report = tmp_path / f"{python.parent.parent.name}.json"
        procs.append((python, report, subprocess.Popen(
            [str(python), "-m", "jetcalc.cli", "verify", "--claim", "all", "--n-max", "4",
             "--report", str(report)], env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)))
    for python, report, proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, (str(python), err)
        assert (hashlib.md5(report.read_bytes()).hexdigest()
                == "922e541a1b1bc90655be9cab56a935ea"), str(python)


@pytest.mark.parametrize("seed", ["0", "3"])
def test_verify_n_max_8_report_is_pinned_at_two_seeds(tmp_path, seed):
    # the seed does not reach these bytes: both seeds give the same report
    report = tmp_path / "report.json"
    assert main(["verify", "--claim", "all", "--n-max", "8", "--jobs", "1",
                 "--seed", seed, "--report", str(report)]) == 0
    assert hashlib.md5(report.read_bytes()).hexdigest() == "b8886c149d10e56224cf0e0c0a254774"


def test_gen_outputs_are_pinned(capsys):
    # the 24 gen outputs at n=3, concatenated; a refactor of the generators
    # or the printers must leave them unchanged
    out = []
    for system in ("ch", "qiao", "bcbs", "bmcbs", "msys", "mcbs-sys", "cbs", "miura"):
        for fmt in ("text", "latex", "json"):
            assert main(["gen", "--system", system, "--n", "3", "--format", fmt]) == 0
            out.append(capsys.readouterr().out)
    assert hashlib.md5("".join(out).encode()).hexdigest() == "4d984caec1af743523ab6ea3bec1d499"


def test_verify_unknown_claim(capsys):
    assert main(["verify", "--claim", "C42"]) == 2
    for bad in (["--term-cap", "0"], ["--step-cap", "0"], ["--step-cap", "-1"],
                ["--jobs", "0"], ["--jobs", "-3"], ["--n-max", "0"]):
        assert main(["verify", "--claim", "C1", "--n-max", "1", "--jobs", "1"] + bad) == 2
    # the numeric zero tolerance is fixed, not a flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "C1", "--n-max", "1", "--jobs", "1", "--zero-tol", "1e-9"])
    assert exc.value.code == 2


def test_verify_runs_a_repeated_claim_once(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--claim", "C1,c1", "--n-max", "1", "--jobs", "1",
                 "--report", str(report)]) == 0
    assert [(r["claim"], r["n"]) for r in json.loads(report.read_text())] == [("C1", 1)]
    assert "1 cells: 1 pass" in capsys.readouterr().out


def test_verify_headline_at_n1(capsys):
    assert main(["verify", "--claim", "C9", "--n-max", "1", "--jobs", "1"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1
    assert records[0]["status"] == "pass"
    assert records[0]["millis"] is None


def test_verify_report_files_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--claim", "C1,C2,C6", "--n-max", "2", "--jobs", "1"]
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    records = json.loads(a.read_text())
    assert [r["claim"] for r in records] == ["C1", "C1", "C2", "C2", "C6", "C6"]


def test_verify_timings_flag_populates_millis(tmp_path):
    path = tmp_path / "t.json"
    assert main(["verify", "--claim", "C1", "--n-max", "1", "--jobs", "1",
                 "--timings", "--report", str(path)]) == 0
    records = json.loads(path.read_text())
    assert records[0]["millis"] is not None


def test_verify_engine_error_exit_code(tmp_path):
    path = tmp_path / "e.json"
    code = main(["verify", "--claim", "C9", "--n-max", "2", "--jobs", "1",
                 "--step-cap", "1", "--report", str(path)])
    assert code == 3
    records = json.loads(path.read_text())
    assert any(r["status"] == "error" for r in records)


def test_verify_unwritable_report_is_a_usage_error(tmp_path, capsys):
    # exit 1 would read as a failed claim; the path fails before the run,
    # so no summary table reaches stdout
    path = tmp_path / "missing" / "r.json"
    assert main(["verify", "--n-max", "1", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_verify_term_cap_does_not_leak(tmp_path):
    path = tmp_path / "c.json"
    main(["verify", "--claim", "C9", "--n-max", "1", "--jobs", "1",
          "--term-cap", "50", "--report", str(path)])
    assert run_claim("C3", 3).status == "pass"


def test_reduce_prolongation(capsys):
    assert main(["reduce", "--system", "ch", "--n", "1", "--expr", "P_{X,T}"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-1/2*P^3 - 1/2*P*Omega[1] - P_{X}*Omega[1]_{X} - 1/2*P_{X,X}*Omega[1]"


def test_reduce_outputs_are_pinned(capsys):
    # CH normal forms at n=3 of printed C_MR images: C9's seven equations and
    # sixteen seeded expressions; a speed-up of the exact core or of the
    # reduction must leave the printed normal forms unchanged
    m = build_map("C_MR", 3)
    exprs = [eq.residual.total_derivative("x") if eq.label == "E_Q3n" else eq.residual
             for eq in gen_qiao(3)]
    rng = random.Random(2024)
    jets = transportable_jets(m)
    exprs += [random_poly_from(jets, rng, max_terms=3, max_factors=2, max_exp=1)
              for _ in range(16)]
    out = []
    for e in exprs:
        text = print_text(m.transport(e))
        assert main(["reduce", "--system", "ch", "--n", "3", "--expr", text]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.md5("".join(out).encode()).hexdigest() == "270b2f4382a5e065dba04dc8e90012f2"


def test_reduce_step_cap_is_an_engine_error(capsys):
    assert main(["reduce", "--system", "ch", "--n", "2", "--step-cap", "1",
                 "--expr", "P_{X,X,T} + P_{X,T}*Omega[1]_{X,X,X}"]) == 3
    assert capsys.readouterr().err == ("engine error: StepCapError: reduction exceeded 1 "
                                       "steps; last rewrites: P_{X,X,T}\n")


def test_reduce_rejects_a_negative_step_cap(capsys):
    assert main(["reduce", "--system", "ch", "--n", "2", "--step-cap", "-1",
                 "--expr", "P_{T,T}"]) == 2
    assert capsys.readouterr().err == "error: term and step caps must be positive\n"


def test_reduce_notes_a_system_not_shown_coherent(capsys):
    assert main(["reduce", "--system", "bcbs", "--n", "3", "--expr", "X_{T0,T0,T1}"]) == 0
    assert capsys.readouterr().err == ("note: the bcbs system at n=3 is not shown coherent; "
                                       "the normal form may depend on the rewrite order\n")
    assert main(["reduce", "--system", "ch", "--n", "3", "--expr", "P_{X,T}"]) == 0
    assert capsys.readouterr().err == ""


def test_reduce_bcbs_needs_n2(capsys):
    assert main(["reduce", "--system", "bcbs", "--n", "1", "--expr", "X_{T0}"]) == 2


def test_reduce_parse_error(capsys):
    assert main(["reduce", "--system", "ch", "--n", "1", "--expr", "P_{Y}"]) == 2
    assert capsys.readouterr().err == "error: unknown variable 'Y' at 3..4\n"


def test_eval_parse_error(capsys):
    assert main(["eval", "--space", "q", "--n", "1", "--expr", "u + "]) == 2
    assert capsys.readouterr().err == "error: expected an expression, found '' at 4..4\n"


@pytest.mark.parametrize("args, err", [
    (["reduce", "--system", "ch", "--n", "1", "--expr", "1/0"], "division by zero at 2..3"),
    (["eval", "--space", "ch", "--n", "1", "--expr", "0*P/(P-P)"], "division by zero at 4..9"),
    (["reduce", "--system", "ch", "--n", "1", "--expr", "(P-P)^-1"],
     "zero raised to a negative power at 0..5"),
], ids=["reduce-1/0", "eval-0*P/(P-P)", "reduce-(P-P)^-1"])
def test_a_literal_division_by_zero_is_a_usage_error(capsys, args, err):
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_eval_is_deterministic(capsys):
    args = ["eval", "--space", "r", "--n", "2", "--expr", "X_{T0}^2", "--seed", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_eval_without_well_conditioned_point(capsys):
    assert main(["eval", "--space", "r", "--n", "2", "--expr", "1/X_{T0,T1,T2}"]) == 3


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as err:
        main(["gen", "--system", "nope", "--n", "1"])
    assert err.value.code == 2


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a parallel run_all needs concurrent.futures
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import sys, jetcalc.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_cli_import_adds_no_dataclasses_inspect_or_process_pool():
    # the three cost every jetcalc process time at start and no code path of
    # the import needs them; site may load modules first, so count additions
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = ("import sys; before = set(sys.modules); import jetcalc.cli; "
             "print(sorted({'dataclasses', 'inspect', 'concurrent.futures.process'}"
             " & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_the_runtime_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; relative imports stay in jetcalc
    package = Path(__file__).resolve().parents[1] / "src" / "jetcalc"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
