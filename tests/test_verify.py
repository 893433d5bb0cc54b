"""The built-in oracle suite: all green, and a sign error really trips it."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

import dctau.verify
from dctau.cli import main
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


@pytest.fixture
def sign_error(monkeypatch):
    """Inject a sign error into the universum-side gradient the checks read:
    the loss's grad_u, and the decomposition's universum repulsion g_tau."""
    real_loss, real_decompose = dctau.verify.dc_total_loss_grad, dctau.verify.decompose

    def flipped_loss(*args, **kwargs):
        res = real_loss(*args, **kwargs)
        return res if res.grad_u is None else replace(res, grad_u=-res.grad_u)

    def flipped_decompose(*args, **kwargs):
        decomp = real_decompose(*args, **kwargs)
        return replace(decomp, g_tau=-decomp.g_tau)

    monkeypatch.setattr(dctau.verify, "dc_total_loss_grad", flipped_loss)
    monkeypatch.setattr(dctau.verify, "decompose", flipped_decompose)


def test_injected_sign_error_is_caught(sign_error):
    results = run_all(quiet=True)
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


def test_failure_lines_printed_on_injection(sign_error, capsys):
    run_all(quiet=False)
    out = capsys.readouterr().out
    assert "FAIL  gradient_fd:" in out
    assert "FAIL  decomposition:" in out
    assert "7/9 checks passed" in out


def test_cli_verify_quiet_exits_3_and_names_the_failures_on_stderr(sign_error, capsys):
    assert main(["verify", "--quiet"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FAIL  gradient_fd:" in captured.err
    assert "FAIL  decomposition:" in captured.err


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
