"""Tests for repro.analysis: layering, lint rules, suppressions, CLI gate.

The fixture trees are synthetic packages written into tmp_path with one
seeded violation each, so every rule can be shown to fire exactly once with
the right ``file:line`` — and the real installed tree can be shown to
produce zero findings (the property CI gates on).
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisConfig,
    LayerSpec,
    SuppressionTable,
    analyze_tree,
    check_layers,
    collect_modules,
    load_config,
    run_rules,
)
from repro.tomlsubset import parse_toml_subset
from repro.cli import main


def write_tree(root: Path, files: dict) -> Path:
    """Materialise {relpath: source} as a package tree under root/pkg."""
    base = root / "pkg"
    for relpath, source in files.items():
        path = base / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        init = path.parent / "__init__.py"
        if not init.exists():
            init.write_text("")
    return base


def fixture_config(**overrides) -> AnalysisConfig:
    defaults = dict(
        root_package="pkg",
        layers={
            "serpens": LayerSpec("serpens", allow=("formats",)),
            "serve": LayerSpec("serve", allow=("serpens",), lazy=("autotune",)),
            "formats": LayerSpec("formats"),
            "autotune": LayerSpec("autotune"),
        },
        hot_paths=("serpens",),
        engine_names=("serpens-a16", "sextans"),
    )
    defaults.update(overrides)
    return AnalysisConfig(**defaults)


def analyze_fixture(base: Path, config: AnalysisConfig):
    modules = collect_modules(base)
    return check_layers(modules, config) + run_rules(modules, config)


class TestLayering:
    def test_eager_violation_fires_once_with_provenance(self, tmp_path):
        base = write_tree(
            tmp_path,
            {"serpens/core.py": "import os\nfrom pkg.serve import api\n"},
        )
        findings = analyze_fixture(base, fixture_config())
        assert [
            (f.code, f.path, f.line) for f in findings
        ] == [("RPR101", "serpens/core.py", 2)]

    def test_lazy_import_of_forbidden_layer_is_rpr102(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serpens/core.py": (
                    "def f():\n    from pkg.serve import api\n    return api\n"
                )
            },
        )
        findings = analyze_fixture(base, fixture_config())
        assert [(f.code, f.line) for f in findings] == [("RPR102", 2)]

    def test_lazy_list_permits_function_scoped_but_not_eager(self, tmp_path):
        lazy_ok = write_tree(
            tmp_path / "ok",
            {"serve/route.py": "def f():\n    from pkg.autotune import plan\n"},
        )
        assert analyze_fixture(lazy_ok, fixture_config()) == []
        eager_bad = write_tree(
            tmp_path / "bad",
            {"serve/route.py": "from pkg.autotune import plan\n"},
        )
        findings = analyze_fixture(eager_bad, fixture_config())
        assert [f.code for f in findings] == ["RPR101"]
        assert "move it inside the function" in findings[0].message

    def test_type_checking_imports_count_as_lazy(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serve/route.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from pkg.autotune import plan\n"
                )
            },
        )
        assert analyze_fixture(base, fixture_config()) == []

    def test_relative_imports_resolve_to_layers(self, tmp_path):
        base = write_tree(
            tmp_path,
            {"serpens/core.py": "from ..serve import api\n"},
        )
        findings = analyze_fixture(base, fixture_config())
        assert [(f.code, f.line) for f in findings] == [("RPR101", 1)]

    def test_undeclared_source_package_is_reported_once(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "mystery/a.py": "from pkg.formats import coo\n",
                "mystery/b.py": "from pkg.formats import csr\n",
            },
        )
        findings = analyze_fixture(base, fixture_config())
        assert [f.code for f in findings] == ["RPR101"]
        assert "no [layers.mystery] declaration" in findings[0].message


class TestSuppressions:
    def test_same_line_marker_with_reason_suppresses(self):
        table = SuppressionTable(
            "x.py", ["value = 1  # repro: ignore[RPR202] fixture data"]
        )
        assert table.suppresses("RPR202", 1)
        assert not table.suppresses("RPR201", 1)
        assert table.violations() == []

    def test_comment_only_marker_applies_to_next_code_line(self):
        table = SuppressionTable(
            "x.py",
            [
                "# repro: ignore[RPR201] output ABI boundary",
                "# (an unrelated comment keeps it pending)",
                "wide = x.astype(np.float64)",
            ],
        )
        assert table.suppresses("RPR201", 3)
        assert not table.suppresses("RPR201", 1)

    def test_reasonless_marker_is_rpr100_and_suppresses_nothing(self):
        table = SuppressionTable("x.py", ["value = 1  # repro: ignore[RPR202]"])
        assert not table.suppresses("RPR202", 1)
        violations = table.violations()
        assert [(f.code, f.line) for f in violations] == [("RPR100", 1)]

    def test_marker_can_carry_multiple_codes(self):
        table = SuppressionTable(
            "x.py", ["y = f()  # repro: ignore[RPR201, RPR203] both intended"]
        )
        assert table.suppresses("RPR201", 1)
        assert table.suppresses("RPR203", 1)


class TestLintRules:
    def test_float64_creep_fires_once_per_site_in_hot_paths(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serpens/kernel.py": (
                    "import numpy as np\n"
                    "def accumulate(values):\n"
                    "    return np.sum(values)\n"
                ),
                "serve/api.py": (
                    "import numpy as np\n"
                    "def fine(values):\n"
                    "    return np.sum(values)\n"
                ),
            },
        )
        findings = analyze_fixture(base, fixture_config())
        assert [
            (f.code, f.path, f.line) for f in findings
        ] == [("RPR201", "serpens/kernel.py", 3)]

    def test_fp32_dtype_keyword_passes(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serpens/kernel.py": (
                    "import numpy as np\n"
                    "def accumulate(values):\n"
                    "    return np.sum(values, dtype=np.float32)\n"
                )
            },
        )
        assert analyze_fixture(base, fixture_config()) == []

    @pytest.mark.parametrize(
        "expression",
        ["np.dot(a, b)", "a.astype(np.float64)", "a.astype('float64')", "a.astype(float)"],
    )
    def test_dot_and_astype_float64_fire(self, tmp_path, expression):
        base = write_tree(
            tmp_path,
            {"serpens/kernel.py": f"import numpy as np\ndef f(a, b):\n    return {expression}\n"},
        )
        findings = analyze_fixture(base, fixture_config())
        assert [(f.code, f.line) for f in findings] == [("RPR201", 3)]

    def test_astype_float32_passes(self, tmp_path):
        base = write_tree(
            tmp_path,
            {"serpens/kernel.py": "import numpy as np\ndef f(a):\n    return a.astype(np.float32)\n"},
        )
        assert analyze_fixture(base, fixture_config()) == []

    def test_engine_literal_fires_outside_backends_only(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serve/route.py": 'PREFERRED = "sextans"\n',
                "backends/registry.py": 'NAME = "sextans"\n',
            },
        )
        findings = analyze_fixture(
            base,
            fixture_config(
                layers={
                    "serve": LayerSpec("serve"),
                    "backends": LayerSpec("backends"),
                }
            ),
        )
        assert [
            (f.code, f.path, f.line) for f in findings
        ] == [("RPR202", "serve/route.py", 1)]
        assert "ENGINE_SEXTANS" in findings[0].message

    def test_engine_literal_in_docstring_is_ignored(self, tmp_path):
        base = write_tree(
            tmp_path,
            {"serve/route.py": '"""Mentions serpens-a16 in prose."""\n'},
        )
        assert analyze_fixture(base, fixture_config()) == []

    def test_mutable_default_fires_for_each_shape(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serve/api.py": (
                    "def f(a=[], b=None, *, c={}):\n"
                    "    return a, b, c\n"
                )
            },
        )
        findings = analyze_fixture(base, fixture_config())
        assert [f.code for f in findings] == ["RPR203", "RPR203"]
        assert all(f.line == 1 for f in findings)

    def test_suppressed_finding_stays_silent(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serve/route.py": (
                    'PREFERRED = "sextans"  # repro: ignore[RPR202] test fixture\n'
                )
            },
        )
        assert analyze_fixture(base, fixture_config()) == []

    def test_clean_fixture_tree_has_zero_findings(self, tmp_path):
        base = write_tree(
            tmp_path,
            {
                "serpens/kernel.py": (
                    "import numpy as np\n"
                    "from pkg.formats import coo\n"
                    "def f(values):\n"
                    "    return np.sum(values, dtype=np.float32) + coo\n"
                ),
                "serve/route.py": (
                    "from pkg.serpens import kernel\n"
                    "def plan():\n"
                    "    from pkg.autotune import search\n"
                    "    return search, kernel\n"
                ),
                "formats/coo.py": "coo = object()\n",
                "autotune/search.py": "search = object()\n",
            },
        )
        assert analyze_fixture(base, fixture_config()) == []


class TestConfig:
    def test_fallback_parser_matches_tomllib_on_the_committed_file(self):
        # Both committed TOML files: the layer contract and the chaos plan.
        tomllib = pytest.importorskip("tomllib")
        layers = load_config().path
        plan = layers.parents[1] / "benchmarks" / "faults_standard.toml"
        for path in (layers, plan):
            text = path.read_text()
            assert parse_toml_subset(text) == tomllib.loads(text), path

    def test_committed_config_declares_the_load_bearing_absences(self):
        config = load_config()
        for source in ("serve", "backends", "autotune"):
            spec = config.layers[source]
            assert not spec.permits("obs", lazy=False)
            assert not spec.permits("obs", lazy=True)
            assert not spec.permits("cli", lazy=True)
        parallel = config.layers["parallel"]
        assert parallel.permits("obs", lazy=True)
        assert not parallel.permits("obs", lazy=False)
        for source in ("serpens", "spmv", "formats"):
            spec = config.layers[source]
            for target in ("serve", "cli"):
                assert not spec.permits(target, lazy=True)
        assert all(
            not spec.permits("cli", lazy=True)
            for name, spec in config.layers.items()
            if name != "cli"
        )

    def test_missing_layers_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.toml")


class TestRealTree:
    def test_installed_tree_is_clean(self):
        report = analyze_tree()
        assert report.clean, report.render()
        assert report.modules_scanned > 80
        assert report.engines_checked >= 6

    def test_report_payload_follows_results_conventions(self):
        report = analyze_tree(check_protocol=False)
        payload = report.as_payload()
        assert payload["kind"] == "analysis"
        assert payload["clean"] is True
        assert set(payload["counts"]) >= {"RPR101", "RPR201", "RPR301"}
        json.dumps(payload)  # must be JSON-serialisable as-is


class TestCliVerb:
    def test_analyze_strict_exits_zero_on_clean_tree(self, capsys):
        assert main(["analyze", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_analyze_json_emits_the_payload(self, capsys):
        assert main(["analyze", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "analysis"
        assert payload["clean"] is True

    def test_analyze_rules_lists_every_code(self, capsys):
        assert main(["analyze", "rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RPR100", "RPR101", "RPR201", "RPR202", "RPR203", "RPR204", "RPR301", "RPR302"):
            assert code in out

    def test_analyze_strict_fails_on_a_seeded_violation(self, tmp_path, capsys, monkeypatch):
        # Point the analyzer at a layers file that forbids an edge the real
        # tree has (serve -> backends), so --strict must exit 1.
        contract = tmp_path / "layers.toml"
        contract.write_text(
            '[analysis]\nroot = "repro"\n\n[layers.serve]\nallow = []\n'
        )
        import repro.analysis.runner as runner

        monkeypatch.setattr(runner, "check_engine_protocol", lambda: [])
        assert main(["analyze", "--strict", "--layers", str(contract)]) == 1
        out = capsys.readouterr().out
        assert "RPR101" in out
