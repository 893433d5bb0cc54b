"""The built-in oracle suite: all green, and the injection really trips it."""

import ast
from pathlib import Path

import dctau.verify
from dctau.verify import ALL_CHECKS, CheckResult, run_all

_ROOT = Path(__file__).resolve().parents[1]
_ORACLES = {
    "unit_rows", "labels_with_positives", "paired_labels", "fd_grad", "rel_err",
    "auroc_pairs", "oscr_sweep", "macro_f1_loops",
}


def test_all_checks_pass(capsys):
    results = run_all(quiet=True)
    assert len(results) == len(ALL_CHECKS) == 9
    failures = [r.name for r in results if not r.passed]
    assert failures == []
    assert capsys.readouterr().out == ""


def test_check_names_are_stable():
    names = [r.name for r in run_all(quiet=True)]
    assert names == [
        "supcon_worked_example",
        "gradient_fd",
        "network_gradient_fd",
        "reduction_identity",
        "decomposition",
        "hard_negative_situations",
        "universum_examples",
        "metric_oracles",
        "threshold_rules",
    ]


def test_injected_sign_error_is_caught():
    results = run_all(inject_sign_error=True, quiet=True)
    failed = {r.name for r in results if not r.passed}
    # flipping the universum gradient must trip exactly the gradient checks
    assert failed == {"gradient_fd", "decomposition"}


def test_report_format(capsys):
    results = run_all(quiet=False)
    out = capsys.readouterr().out
    for result in results:
        assert isinstance(result, CheckResult)
        assert f"PASS  {result.name}:" in out
    assert "9/9 checks passed" in out


def test_failure_lines_printed_on_injection(capsys):
    run_all(inject_sign_error=True, quiet=False)
    out = capsys.readouterr().out
    assert "FAIL  gradient_fd:" in out
    assert "FAIL  decomposition:" in out
    assert "7/9 checks passed" in out


def test_tests_and_demos_define_no_copy_of_an_oracle():
    # the oracles are written once in dctau.verify; a test or demo that
    # defines one of their names, with or without leading underscores,
    # is a copy that can drift from it
    assert all(callable(getattr(dctau.verify, name, None)) for name in _ORACLES)
    copies = [
        f"{path.relative_to(_ROOT)}:{node.lineno} {node.name}"
        for path in sorted([*(_ROOT / "tests").glob("*.py"), *(_ROOT / "demos").glob("*.py")])
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.lstrip("_") in _ORACLES
    ]
    assert copies == []
